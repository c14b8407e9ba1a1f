"""Flow-aware simlint rules SL011–SL016.

These rules run on the CFG/dataflow layer (:mod:`.cfg`, :mod:`.dataflow`)
and — for the cross-file ones — on the project symbol table and its
call resolution (:mod:`.project`):

========  ==========================================================
SL011     a resource slot taken by a slot call (``request()``,
          ``acquire()``, ``claim()``) not released on every path (early
          return, fall-through, exception)
SL012     a generator / kernel sub-generator called without
          ``yield from`` — the body never runs (silent no-op)
SL013     a tracer span opened but not closed on every path
SL014     wall-clock / hash-order values flowing through helper
          functions into scheduling sinks (inter-procedural SL002/3)
SL015     one RngRegistry stream name drawn from distinct components
SL016     a blocking wait while holding a resource slot outside a
          charged ``use()`` window (artificial serialization)
========  ==========================================================

Why these are determinism/attribution bugs: a leaked slot silently
reduces a pool's capacity for the rest of the run (SL011); an unyielded
coroutine body simply never executes, so its phase costs vanish (SL012);
an unclosed span corrupts the critical-path attribution (SL013); tainted
delays make two same-seed runs diverge (SL014); two processes drawing
from one stream couple their sequences, so adding a draw in one perturbs
the other (SL015); and holding a slot across an unbounded wait serializes
a pool in a way the phase model misattributes (SL016).
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import typing

from repro.analysis_tools.simlint.cfg import (
    CFG,
    CFGNode,
    build_cfg,
    walk_same_scope,
)
from repro.analysis_tools.simlint.dataflow import (
    EMPTY,
    GenKillProblem,
    State,
    solve,
)
from repro.analysis_tools.simlint.diagnostics import Diagnostic, Severity
from repro.analysis_tools.simlint.engine import FileContext, Rule
from repro.analysis_tools.simlint.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
    ProjectRule,
)
from repro.analysis_tools.simlint.rules import (
    BLOCKING_WAITS,
    CHARGED_SUBGENERATORS,
    CHARGED_YIELDS,
    CLAIM,
    HOST_BUILTINS,
    HOST_ENTROPY,
    MUST_CONSUME,
    RELEASE,
    RNG_DRAWS,
    SCHEDULING_SINKS,
    SLOT_CALLS,
    SPAN_CLOSES,
    SPAN_OPEN,
    _dotted_name,
    host_clock,
)

FunctionAst = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]


def iter_functions(tree: ast.Module) -> typing.Iterator[FunctionAst]:
    """Every function/method definition in the file, in source order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _mentions_name(node: ast.AST, var: str) -> bool:
    return any(isinstance(child, ast.Name) and child.id == var
               for child in ast.walk(node))


# ======================================================================
# Open-to-close pairing (SL011, SL013, SL016)
# ======================================================================

@dataclasses.dataclass(frozen=True)
class Pairing:
    """What one open-to-close rule pairs, and how it words a finding.

    ``opens(expr)`` is the opening call in ``expr``, or None.  A value
    bound by ``var = <opening call>`` stays open until a statement
    ``closes(stmt, var)`` it or lets it ``escape(stmt, var, openers)`` —
    hands it on, so that closing it is someone else's job.  ``openers``
    are the method names of the calls that opened ``var``.
    """

    opens: typing.Callable[[ast.AST], ast.Call | None]
    closes: typing.Callable[[ast.stmt, str], bool]
    escapes: typing.Callable[[ast.stmt, str, frozenset[str]], bool]
    #: Messages, formatted with ``call`` (the opening call's dotted
    #: name) and ``var``.
    discarded: str
    every_path: str
    exception_path: str
    #: Whether a value that escapes anywhere in the function still has
    #: its exception-path leaks reported.
    escaped_exception_paths: bool = True

    def opened_in(self, func: FunctionAst) -> bool:
        """Cheap pre-test: does any statement in ``func`` open a value?"""
        return any(isinstance(node, (ast.Assign, ast.Expr))
                   and self.opens(node.value) is not None
                   for node in ast.walk(func))


class PairingProblem(GenKillProblem):
    """Forward may-analysis: which opened values are not closed yet.

    State values are ``"<var>:<line>"`` keys, one per opening statement,
    so two openings into the same name are reported separately.
    """

    def __init__(self, cfg: CFG, pairing: Pairing) -> None:
        self.pairing = pairing
        #: open key -> (var, opening statement node)
        self.opened: dict[str, tuple[str, CFGNode]] = {}
        #: Opening calls whose result is dropped on the floor.
        self.discarded: list[ast.Call] = []
        #: When False, exception edges carry nothing (see
        #: :func:`pairing_findings`).
        self.through_exceptions = True
        self._gen: dict[int, State] = {}
        self._kill: dict[int, State] = {}
        opened_var: dict[int, str] = {}
        keys_of: dict[str, set[str]] = {}
        openers: dict[str, set[str]] = {}
        for node in cfg.statements():
            stmt = node.stmt
            if isinstance(stmt, ast.Expr):
                call = pairing.opens(stmt.value)
                if call is not None:
                    self.discarded.append(call)
            elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Name)):
                call = pairing.opens(stmt.value)
                if call is not None:
                    var = stmt.targets[0].id
                    key = f"{var}:{node.lineno}"
                    self.opened[key] = (var, node)
                    self._gen[node.index] = frozenset({key})
                    opened_var[node.index] = var
                    keys_of.setdefault(var, set()).add(key)
                    assert isinstance(call.func, ast.Attribute)
                    openers.setdefault(var, set()).add(call.func.attr)
        self.openers = {var: frozenset(names)
                        for var, names in openers.items()}
        for node in cfg.statements():
            stmt = node.stmt
            assert stmt is not None
            killed: set[str] = set()
            for var in sorted(keys_of):
                if opened_var.get(node.index) == var:
                    continue  # the opening statement itself
                if pairing.closes(stmt, var) or self.escapes(stmt, var):
                    killed |= keys_of[var]
            if killed:
                self._kill[node.index] = frozenset(killed)

    def escapes(self, stmt: ast.stmt, var: str) -> bool:
        return self.pairing.escapes(stmt, var, self.openers[var])

    def gen(self, node: CFGNode) -> State:
        return self._gen.get(node.index, EMPTY)

    def kill(self, node: CFGNode) -> State:
        return self._kill.get(node.index, EMPTY)

    def exception_transfer(self, node: CFGNode, state: State) -> State:
        if not self.through_exceptions:
            return EMPTY
        return super().exception_transfer(node, state)


def pairing_findings(rule: Rule, context: FileContext, func: FunctionAst,
                     pairing: Pairing) -> typing.Iterator[Diagnostic]:
    """``func``'s discarded openings and the values it leaves open."""
    if not pairing.opened_in(func):
        return
    cfg = build_cfg(func)
    problem = PairingProblem(cfg, pairing)
    for call in problem.discarded:
        yield context.diagnostic(rule, call, pairing.discarded.format(
            call=_dotted_name(call.func)))
    if not problem.opened:
        return
    solution = solve(cfg, problem)
    left_open = solution.before(cfg.exit) | solution.before(cfg.raise_exit)
    if not left_open:
        return
    # "Every path" is decided on normal edges alone: a finally body is
    # laid out once, so a value that entered it on an exception edge
    # also reaches its normal exit.
    problem.through_exceptions = False
    on_normal_paths = solve(cfg, problem).before(cfg.exit)
    for key in sorted(left_open):
        var, node = problem.opened[key]
        if key in on_normal_paths:
            message = pairing.every_path
        elif pairing.escaped_exception_paths or not any(
                problem.escapes(other.stmt, var)  # type: ignore[arg-type]
                for other in cfg.statements()):
            message = pairing.exception_path
        else:
            continue  # handed on: its exception windows are not ours
        yield context.diagnostic(
            rule, node.stmt,  # type: ignore[arg-type]
            message.format(var=var))


# -- resource slots (SL011, SL016) -------------------------------------

def _slot_call(expr: ast.AST) -> ast.Call | None:
    """The slot-taking kernel call in ``expr`` (``yield from`` too)."""
    if isinstance(expr, ast.YieldFrom):
        expr = expr.value
    if (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in SLOT_CALLS
            and not expr.args and not expr.keywords):
        return expr
    return None


def _releases(stmt: ast.stmt, var: str) -> bool:
    """``release(var)`` on any receiver, or ``var`` rebound or deleted."""
    for node in walk_same_scope(stmt):
        if isinstance(node, ast.Name):
            if node.id == var and isinstance(node.ctx, (ast.Store, ast.Del)):
                return True
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == RELEASE
              and any(isinstance(arg, ast.Name) and arg.id == var
                      for arg in node.args)):
            return True
    return False


def _request_escapes(stmt: ast.stmt, var: str,
                     openers: frozenset[str]) -> bool:
    """True when ``var`` is used beyond its grant-wait / release.

    Passing the request anywhere else (returned, stored, handed to a
    helper) transfers release responsibility out of this function, so
    tracking stops rather than reporting a false leak.  A ``claim()``ed
    request may also have its attributes read: the claim's own protocol
    tests ``request.triggered`` to decide whether to wait.
    """
    claimed = CLAIM in openers
    allowed_loads = 0
    loads = 0
    for node in walk_same_scope(stmt):
        if isinstance(node, ast.Name) and node.id == var:
            if isinstance(node.ctx, ast.Store):
                continue
            loads += 1
        elif isinstance(node, ast.Yield):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == var):
                allowed_loads += 1  # the grant wait: ``yield request``
        elif (claimed and isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == var):
            allowed_loads += 1  # ``request.triggered`` after a claim
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == RELEASE):
            allowed_loads += sum(
                1 for arg in node.args
                if isinstance(arg, ast.Name) and arg.id == var)
    return loads > allowed_loads


SLOTS = Pairing(
    opens=_slot_call, closes=_releases, escapes=_request_escapes,
    discarded=("result of {call}() is discarded; the slot can never be "
               "released"),
    every_path=("resource request {var!r} is not released on every path "
                "(an early return or fall-through skips release()); "
                "release it in a finally:"),
    exception_path=("resource request {var!r} leaks if an exception (e.g. "
                    "an interrupt at a yield) fires while it is held; move "
                    "the release into a try/finally around the holding "
                    "section"),
    # A request handed to a helper / returned transfers release
    # responsibility; don't second-guess its exception windows.
    escaped_exception_paths=False)


class ResourceLeakRule(Rule):
    """SL011: every acquired slot must be released on every path.

    A leaked :class:`~repro.sim.resources.Request` permanently shrinks the
    pool: once ``capacity`` requests have leaked, every later acquirer
    queues forever and the phase silently serializes or deadlocks.
    Exception paths count — :meth:`Process.interrupt` can throw into any
    yield point, so the release belongs in a ``finally``.
    """

    rule_id = "SL011"
    severity = Severity.ERROR
    description = "resource slot not released on every path"
    #: The kernel may do its own bookkeeping below this abstraction.
    allowlist = ("sim/resources.py",)

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if context.relpath in self.allowlist:
            return
        for func in iter_functions(context.tree):
            yield from pairing_findings(self, context, func, SLOTS)


class BlockingYieldWhileHoldingRule(Rule):
    """SL016: no open-ended waits while a resource slot is held.

    Holding a slot across a store ``get()``, an ``all_of``/``any_of``
    join, or a bare event wait keeps the pool artificially busy for a
    duration unrelated to the service it models; the paper's phase
    attribution then charges that wait to the wrong resource.  Charged
    windows — ``use()``, ``timeout()``, ``charge_statedb()`` — are the
    legitimate ways to spend time while holding.
    """

    rule_id = "SL016"
    severity = Severity.WARNING
    description = "blocking wait while holding a resource slot"
    allowlist = ("sim/resources.py",)

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if context.relpath in self.allowlist:
            return
        for func in iter_functions(context.tree):
            yield from self._check_function(context, func)

    def _check_function(self, context: FileContext,
                        func: FunctionAst) -> typing.Iterator[Diagnostic]:
        if not SLOTS.opened_in(func):
            return
        cfg = build_cfg(func)
        problem = PairingProblem(cfg, SLOTS)
        if not problem.opened:
            return
        solution = solve(cfg, problem)
        for node in cfg.statements():
            held = solution.before(node)
            if not held or not node.is_yield:
                continue
            held_vars = {key.split(":", 1)[0] for key in held}
            stmt = node.stmt
            assert stmt is not None
            for reason, offender in self._blocking_waits(stmt, held_vars):
                names = ", ".join(repr(v) for v in sorted(held_vars))
                yield context.diagnostic(
                    self, offender,
                    f"{reason} while holding resource request(s) {names} "
                    "outside a charged use() window; release first or "
                    "restructure so the wait is not under the slot")

    @staticmethod
    def _blocking_waits(stmt: ast.stmt, held: set[str]
                        ) -> typing.Iterator[tuple[str, ast.AST]]:
        for node in walk_same_scope(stmt):
            if isinstance(node, ast.YieldFrom):
                value = node.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)):
                    attr = value.func.attr
                    if attr in CHARGED_SUBGENERATORS:
                        continue
                    if attr in BLOCKING_WAITS:
                        yield (f"yield from .{attr}(...) blocks", node)
            elif isinstance(node, ast.Yield):
                value = node.value
                if value is None:
                    continue
                if isinstance(value, ast.Name):
                    if value.id not in held:
                        yield (f"waiting on event {value.id!r}", node)
                    continue
                if isinstance(value, ast.Attribute):
                    yield (f"waiting on event {_dotted_name(value)!r}",
                           node)
                    continue
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)):
                    attr = value.func.attr
                    if attr in CHARGED_YIELDS:
                        continue
                    if attr in BLOCKING_WAITS:
                        # Reneging is fine: ``any_of([request, timeout])``
                        # mentioning the held request races its *own*
                        # grant against a patience timer — that is a
                        # grant wait, not a hold-across-wait.
                        if any(_mentions_name(arg, var)
                               for arg in value.args for var in held):
                            continue
                        yield (f"waiting on .{attr}(...)", node)


# -- tracer spans (SL013) ----------------------------------------------

def _span_call(expr: ast.AST) -> ast.Call | None:
    """``<...tracer...>.span(...)``; the ``with`` form never binds one."""
    if (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == SPAN_OPEN
            and "tracer" in _dotted_name(expr.func.value).lower()):
        return expr
    return None


def _closes_span(stmt: ast.stmt, var: str) -> bool:
    # ``with s:`` / ``s.__exit__(...)`` / ``tracer._close(s)``.
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id == var:
                return True
    for node in walk_same_scope(stmt):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            if (node.func.attr in SPAN_CLOSES
                    and (_mentions_name(node.func.value, var)
                         or any(_mentions_name(a, var)
                                for a in node.args))):
                return True
    return False


def _span_escapes(stmt: ast.stmt, var: str,
                  _openers: frozenset[str]) -> bool:
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        return _mentions_name(stmt.value, var)
    for node in walk_same_scope(stmt):
        if (isinstance(node, ast.Call)
                and any(isinstance(arg, ast.Name) and arg.id == var
                        for arg in node.args)):
            func_attr = (node.func.attr
                         if isinstance(node.func, ast.Attribute) else "")
            if func_attr not in SPAN_CLOSES:
                return True
    return False


SPANS = Pairing(
    opens=_span_call, closes=_closes_span, escapes=_span_escapes,
    discarded=("tracer span is created and discarded; use "
               "`with tracer.span(...):` so it opens and closes"),
    every_path=("span {var!r} is opened but not closed on every path; "
                "use `with tracer.span(...):` or close in a finally:"),
    exception_path=("span {var!r} is opened but not closed on an "
                    "exception path; use `with tracer.span(...):` or "
                    "close in a finally:"))


class SpanLeakRule(Rule):
    """SL013: tracer spans close on every path.

    A span that is opened and never closed stays on the per-process open
    stack: every later span in that process nests under it, its duration
    runs to the end of the trace, and critical-path extraction charges
    the whole tail to the wrong phase.  ``with tracer.span(...):`` is the
    safe form; anything manual must guarantee the close.
    """

    rule_id = "SL013"
    severity = Severity.WARNING
    description = "tracer span not closed on every path"
    allowlist = ("obs/tracer.py",)

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if context.relpath in self.allowlist:
            return
        if SPAN_OPEN not in context.source:
            return
        for func in iter_functions(context.tree):
            yield from pairing_findings(self, context, func, SPANS)


# ======================================================================
# SL012 — unyielded coroutine / kernel sub-generator
# ======================================================================

class UnyieldedCoroutineRule(ProjectRule):
    """SL012: a generator called as a bare statement never runs.

    ``self._drain()`` (instead of ``yield from self._drain()`` or
    ``sim.process(self._drain())``) builds a generator object and throws
    it away — the body never executes, no events are scheduled, and the
    phase it implements silently disappears from the run.  The same goes
    for the kernel sub-generators ``use()``/``acquire()`` and for a bare
    ``timeout()`` (the event is created but nobody waits on it).
    """

    rule_id = "SL012"
    severity = Severity.ERROR
    description = "generator called without yield from (silent no-op)"

    def check_project(self, project: ProjectContext
                      ) -> typing.Iterator[Diagnostic]:
        for info in sorted(project.functions.values(),
                           key=lambda info: (info.module, info.qualname)):
            yield from self._check_function(
                project, project.modules[info.module], info)

    def _check_function(self, project: ProjectContext, module: ModuleInfo,
                        info: FunctionInfo) -> typing.Iterator[Diagnostic]:
        for stmt in _own_statements(info.node):
            if not isinstance(stmt, ast.Expr):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue  # yielded / awaited calls are fine
            yield from self._check_call(project, module, info, value)

    def _check_call(self, project: ProjectContext, module: ModuleInfo,
                    info: FunctionInfo,
                    call: ast.Call) -> typing.Iterator[Diagnostic]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in MUST_CONSUME:
            label = _dotted_name(func) or func.attr
            if func.attr == "timeout":
                # A Timeout self-schedules at construction, so the bare
                # call is worse than a no-op: it perturbs the same-seed
                # event schedule while nothing waits on it.
                yield info.context.diagnostic(
                    self, call,
                    f"bare {label}() call: the timeout event is "
                    "scheduled but never awaited — it perturbs the "
                    "schedule with no behavioural effect; yield it or "
                    "remove the call")
            else:
                yield info.context.diagnostic(
                    self, call,
                    f"bare {label}() call: the returned sub-generator "
                    "is discarded unrun, a silent no-op; drive it with "
                    "yield from")
            return
        resolved = project.resolve_call(module, info, call)
        if resolved is None:
            return
        callee = resolved[0]
        if not callee.is_generator:
            return
        yield info.context.diagnostic(
            self, call,
            f"{callee.name}() is a generator (defined at "
            f"{callee.qualname}); calling it without `yield from` (or "
            "sim.process(...)) discards the generator unrun — a silent "
            "no-op")


def _own_statements(func: FunctionAst) -> typing.Iterator[ast.stmt]:
    """All statements in the function's own frame, in source order."""
    stack: list[ast.stmt] = list(reversed(func.body))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield stmt
        blocks: list[list[ast.stmt]] = []
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, None)
            if block:
                blocks.append(block)
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        for block in reversed(blocks):
            stack.extend(reversed(block))


# ======================================================================
# SL014 — inter-procedural determinism taint
# ======================================================================

#: Calls that cleanse taint (deterministic of their inputs' *contents*).
_CLEANSERS = frozenset({
    "len", "sorted", "min", "max", "sum", "abs", "round", "range",
    "enumerate", "zip", "int", "float", "str", "repr", "bool", "tuple",
    "list"})


def _source_label(call: ast.Call, module: ModuleInfo) -> str | None:
    """A deterministic label when ``call`` reads host state, else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        dotted = _dotted_name(func)
    elif isinstance(func, ast.Name):
        if func.id in HOST_BUILTINS:
            return f"{func.id}()"
        dotted = module.imports.get(func.id, "")
    else:
        return None
    if host_clock(dotted, call) or dotted in HOST_ENTROPY:
        return f"{dotted}()"
    return None


class _FunctionFacts:
    """Taint summary of one function."""

    __slots__ = ("ret_sources", "param_to_ret", "param_to_sink")

    def __init__(self) -> None:
        #: Source labels that can reach a return value unconditionally.
        self.ret_sources: frozenset[str] = frozenset()
        #: Param indices whose taint can reach the return value.
        self.param_to_ret: frozenset[int] = frozenset()
        #: Param indices whose taint can reach a scheduling sink inside.
        self.param_to_sink: frozenset[int] = frozenset()

    def as_tuple(self) -> tuple[frozenset[str], frozenset[int],
                                frozenset[int]]:
        return (self.ret_sources, self.param_to_ret, self.param_to_sink)


class _SummaryReads:
    """The callee summaries one analysis reads, recorded as it reads
    them: the functions to re-analyse when one of them changes."""

    __slots__ = ("summaries", "read")

    def __init__(self, summaries: dict[str, _FunctionFacts]) -> None:
        self.summaries = summaries
        self.read: set[str] = set()

    def get(self, qualname: str) -> _FunctionFacts | None:
        self.read.add(qualname)
        return self.summaries.get(qualname)


class DeterminismTaintRule(ProjectRule):
    """SL014: host-dependent values must not reach scheduling sinks.

    SL002/SL003 catch a wall-clock read *next to* a ``timeout()``; this
    rule follows the value through assignments, helper returns, and
    parameter passing across the call graph, because refactors love to
    hide the read two functions away from the sink.
    """

    rule_id = "SL014"
    severity = Severity.ERROR
    description = "host-dependent value flows into event scheduling"
    #: Observability code profiles the host on purpose; its host-side
    #: reporting calls are not simulation sinks.
    allowlist_prefixes = ("obs/",)

    #: The termination bound: at most this many analyses per function
    #: on average, the work of as many passes over the whole project.
    MAX_PASSES = 8

    def check_project(self, project: ProjectContext
                      ) -> typing.Iterator[Diagnostic]:
        """Summaries to a fixpoint over a worklist, then the findings.

        Every function is analysed once, in name order; a function whose
        summary changes re-queues the functions that read it.  The
        summaries only grow, so each function's last analysis read the
        final summaries, and its findings are the ones reported.
        """
        summaries: dict[str, _FunctionFacts] = {
            qualname: _FunctionFacts()
            for qualname in project.functions}
        order = sorted(project.functions)
        readers: dict[str, set[str]] = {}
        findings: dict[str, list[Diagnostic]] = {}
        queue = collections.deque(order)
        queued = set(order)
        budget = self.MAX_PASSES * len(order)
        while queue and budget:
            budget -= 1
            qualname = queue.popleft()
            queued.discard(qualname)
            info = project.functions[qualname]
            reads = _SummaryReads(summaries)
            facts, findings[qualname] = self._analyze(
                project, project.modules[info.module], info, reads)
            for callee in reads.read:
                readers.setdefault(callee, set()).add(qualname)
            if facts.as_tuple() != summaries[qualname].as_tuple():
                summaries[qualname] = facts
                for reader in sorted(readers.get(qualname, ())):
                    if reader not in queued:
                        queued.add(reader)
                        queue.append(reader)
        for qualname in order:
            info = project.functions[qualname]
            if not info.context.relpath.startswith(self.allowlist_prefixes):
                yield from findings[qualname]

    # -- intra-procedural propagation ----------------------------------

    def _analyze(self, project: ProjectContext, module: ModuleInfo,
                 info: FunctionInfo, summaries: _SummaryReads
                 ) -> tuple[_FunctionFacts, list[Diagnostic]]:
        params = [arg.arg for arg in info.node.args.args]
        if params and params[0] in ("self", "cls") and info.cls is not None:
            params = params[1:]
        param_index = {name: i for i, name in enumerate(params)}
        env: dict[str, frozenset[str]] = {
            name: frozenset({f"param:{i}"})
            for name, i in param_index.items()}
        facts = _FunctionFacts()
        ret_sources: set[str] = set()
        param_to_ret: set[int] = set()
        param_to_sink: set[int] = set()
        diagnostics: list[Diagnostic] = []

        def origins(expr: ast.expr | None) -> frozenset[str]:
            if expr is None:
                return frozenset()
            return self._origins(expr, env, project, module, info,
                                 summaries)

        statements = list(_own_statements(info.node))
        for _pass in range(2):  # second pass approximates loop carry
            for stmt in statements:
                self._transfer(stmt, env, origins)
                if isinstance(stmt, ast.Return):
                    for label in origins(stmt.value):
                        if label.startswith("param:"):
                            param_to_ret.add(int(label.split(":", 1)[1]))
                        else:
                            ret_sources.add(label)
                # Sink checks on every call in the statement.
                for node in walk_same_scope(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    self._check_sinks(
                        node, origins, param_to_sink, diagnostics,
                        project, module, info, summaries,
                        report=(_pass == 1))
        facts.ret_sources = frozenset(ret_sources)
        facts.param_to_ret = frozenset(param_to_ret)
        facts.param_to_sink = frozenset(param_to_sink)
        return facts, diagnostics

    def _transfer(self, stmt: ast.stmt, env: dict[str, frozenset[str]],
                  origins: typing.Callable[[ast.expr | None],
                                           frozenset[str]]) -> None:
        if isinstance(stmt, ast.Assign):
            labels = origins(stmt.value)
            for target in stmt.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        env[name_node.id] = labels
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = origins(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = (env.get(stmt.target.id, frozenset())
                                       | origins(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            labels = origins(stmt.iter)
            for name_node in ast.walk(stmt.target):
                if isinstance(name_node, ast.Name):
                    env[name_node.id] = labels

    def _origins(self, expr: ast.expr, env: dict[str, frozenset[str]],
                 project: ProjectContext, module: ModuleInfo,
                 info: FunctionInfo,
                 summaries: _SummaryReads) -> frozenset[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Constant):
            return frozenset()
        if isinstance(expr, ast.Call):
            label = _source_label(expr, module)
            if label is not None:
                return frozenset(
                    {f"{label} at {module.name}:{expr.lineno}"})
            func = expr.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else "")
            if name in _CLEANSERS:
                return frozenset()
            arg_labels = [
                self._origins(arg, env, project, module, info, summaries)
                for arg in expr.args]
            resolved = project.resolve_call(module, info, expr)
            if resolved is not None:
                callee, _conf = resolved
                summary = summaries.get(callee.qualname)
                if summary is not None:
                    out: set[str] = set(summary.ret_sources)
                    for index in summary.param_to_ret:
                        if index < len(arg_labels):
                            out |= arg_labels[index]
                    return frozenset(out)
            # Unknown callee: taint propagates through arguments and the
            # receiver (``tainted.method()``).
            out = set()
            for labels in arg_labels:
                out |= labels
            if isinstance(func, ast.Attribute):
                out |= self._origins(func.value, env, project, module,
                                     info, summaries)
            for keyword in expr.keywords:
                out |= self._origins(keyword.value, env, project, module,
                                     info, summaries)
            return frozenset(out)
        if isinstance(expr, (ast.Yield, ast.YieldFrom, ast.Await)):
            return frozenset()  # kernel event values are simulated time
        out = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self._origins(child, env, project, module, info,
                                     summaries)
        return frozenset(out)

    def _check_sinks(self, call: ast.Call,
                     origins: typing.Callable[[ast.expr | None],
                                              frozenset[str]],
                     param_to_sink: set[int],
                     diagnostics: list[Diagnostic],
                     project: ProjectContext, module: ModuleInfo,
                     info: FunctionInfo,
                     summaries: _SummaryReads,
                     report: bool) -> None:
        func = call.func
        sink_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        all_args = list(call.args) + [kw.value for kw in call.keywords]
        if sink_name in SCHEDULING_SINKS:
            for arg in all_args:
                for label in sorted(origins(arg)):
                    if label.startswith("param:"):
                        param_to_sink.add(int(label.split(":", 1)[1]))
                    elif report:
                        diagnostics.append(info.context.diagnostic(
                            self, call,
                            f"value tainted by {label} flows into "
                            f"{sink_name}(); the simulated schedule now "
                            "depends on the host — draw from the seeded "
                            "RngRegistry or pass simulated time"))
            return
        resolved = project.resolve_call(module, info, call)
        if resolved is None:
            return
        callee, _conf = resolved
        summary = summaries.get(callee.qualname)
        if summary is None or not summary.param_to_sink:
            return
        for index in sorted(summary.param_to_sink):
            if index >= len(call.args):
                continue
            for label in sorted(origins(call.args[index])):
                if label.startswith("param:"):
                    param_to_sink.add(int(label.split(":", 1)[1]))
                elif report:
                    diagnostics.append(info.context.diagnostic(
                        self, call,
                        f"value tainted by {label} reaches a scheduling "
                        f"sink inside {callee.name}() (via parameter "
                        f"{index}); the simulated schedule now depends "
                        "on the host"))


# ======================================================================
# SL015 — RNG stream aliasing
# ======================================================================

class RngStreamAliasRule(ProjectRule):
    """SL015: one named RNG stream, one drawing component.

    Two processes drawing from the same named stream interleave their
    consumption: adding a draw in one shifts every later draw in the
    other, so a local change perturbs an unrelated component's behaviour
    under the same seed.  Constant stream names used from two different
    classes (or modules) are almost certainly such an accidental share;
    per-node f-string names never collide this way.
    """

    rule_id = "SL015"
    severity = Severity.WARNING
    description = "RNG stream name shared across components"

    def check_project(self, project: ProjectContext
                      ) -> typing.Iterator[Diagnostic]:
        #: stream name -> list of (scope, call node, FileContext)
        uses: dict[str, list[tuple[str, ast.Call, FileContext]]] = {}
        for module_name in sorted(project.modules):
            module = project.modules[module_name]
            for call, scope in self._stream_calls(module):
                name = call.args[0].value  # type: ignore[attr-defined]
                uses.setdefault(name, []).append(
                    (scope, call, module.context))
        for name in sorted(uses):
            sites = uses[name]
            scopes = sorted({scope for scope, _call, _ctx in sites})
            if len(scopes) < 2:
                continue
            listed = ", ".join(scopes)
            for scope, call, context in sites:
                yield context.diagnostic(
                    self, call,
                    f"RNG stream {name!r} is drawn from {len(scopes)} "
                    f"distinct components ({listed}); shared streams "
                    "couple their draw sequences — give each component "
                    "its own name")

    def _stream_calls(self, module: ModuleInfo
                      ) -> typing.Iterator[tuple[ast.Call, str]]:
        def visit(node: ast.AST, scope: str) -> typing.Iterator[
                tuple[ast.Call, str]]:
            for child in ast.iter_child_nodes(node):
                child_scope = scope
                if isinstance(child, ast.ClassDef):
                    child_scope = f"{module.name}.{child.name}"
                if isinstance(child, ast.Call) and self._is_draw(child):
                    yield child, scope
                yield from visit(child, child_scope)

        yield from visit(module.context.tree, module.name)

    def _is_draw(self, call: ast.Call) -> bool:
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr in RNG_DRAWS):
            return False
        receiver = _dotted_name(call.func.value)
        if "rng" not in receiver.lower():
            return False
        return bool(call.args) and isinstance(
            call.args[0], ast.Constant) and isinstance(
            call.args[0].value, str)


def flow_rules() -> list[Rule]:
    """The per-file flow rules (SL011, SL013, SL016), in id order."""
    return [ResourceLeakRule(), SpanLeakRule(),
            BlockingYieldWhileHoldingRule()]


def project_rules() -> list[ProjectRule]:
    """The project-wide rules (SL012, SL014, SL015), in id order."""
    return [UnyieldedCoroutineRule(), DeterminismTaintRule(),
            RngStreamAliasRule()]
