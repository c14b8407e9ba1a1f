"""Flow-aware simlint rules SL011–SL016.

These rules run on the CFG/dataflow layer (:mod:`.cfg`, :mod:`.dataflow`)
and — for the cross-file ones — on the project symbol table and its
call resolution (:mod:`.project`):

========  ==========================================================
SL011     a resource slot taken by ``request()``/``acquire()``/``claim()``
          not released on every path (early return, fall-through,
          exception)
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
import typing

from repro.analysis_tools.simlint.cfg import CFG, CFGNode, build_cfg
from repro.analysis_tools.simlint.dataflow import (
    EMPTY,
    GenKillProblem,
    Solution,
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
from repro.analysis_tools.simlint.rules import _dotted_name

FunctionAst = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]


def iter_functions(tree: ast.Module) -> typing.Iterator[FunctionAst]:
    """Every function/method definition in the file, in source order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_scope_nodes(stmt: ast.stmt) -> typing.Iterator[ast.AST]:
    """All AST nodes executing at ``stmt`` (no nested frames/bodies)."""
    from repro.analysis_tools.simlint.cfg import _walk_same_scope

    return _walk_same_scope(stmt)


# ======================================================================
# Shared acquire/release tracking (SL011 + SL016)
# ======================================================================

#: Method names that hand out a resource slot.
ACQUIRE_ATTRS = frozenset({"request", "acquire", "claim"})
#: Method name that returns a slot.
RELEASE_ATTR = "release"


def _acquired_var(stmt: ast.stmt) -> tuple[str, str] | None:
    """``(varname, method)`` for slot-acquiring assignments."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)):
        return None
    value: ast.expr = stmt.value
    if isinstance(value, ast.YieldFrom):
        value = value.value
    if (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ACQUIRE_ATTRS
            and not value.args and not value.keywords):
        return stmt.targets[0].id, value.func.attr
    return None


def _bare_acquire(stmt: ast.stmt) -> ast.Call | None:
    """An acquiring call whose result is discarded (unreleasable)."""
    if not isinstance(stmt, ast.Expr):
        return None
    value = stmt.value
    if isinstance(value, ast.YieldFrom):
        value = value.value
    if (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ACQUIRE_ATTRS
            and not value.args and not value.keywords):
        return value
    return None


def _releases_var(stmt: ast.stmt, var: str) -> bool:
    for node in _own_scope_nodes(stmt):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == RELEASE_ATTR
                and any(isinstance(arg, ast.Name) and arg.id == var
                        for arg in node.args)):
            return True
    return False


def _escapes_var(stmt: ast.stmt, var: str, claimed: bool = False) -> bool:
    """True when ``var`` is used beyond its grant-wait / release.

    Passing the request anywhere else (returned, stored, handed to a
    helper) transfers release responsibility out of this function, so
    tracking stops rather than reporting a false leak.  A ``claim()``ed
    request (``claimed``) may also have its attributes read: the claim's
    own protocol tests ``request.triggered`` to decide whether to wait.
    """
    allowed_loads = 0
    loads = 0
    for node in _own_scope_nodes(stmt):
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
              and node.func.attr == RELEASE_ATTR):
            allowed_loads += sum(
                1 for arg in node.args
                if isinstance(arg, ast.Name) and arg.id == var)
    return loads > allowed_loads


def _reassigns_var(stmt: ast.stmt, var: str) -> bool:
    for node in _own_scope_nodes(stmt):
        if (isinstance(node, ast.Name) and node.id == var
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            return True
    return False


class _HeldSlotsProblem(GenKillProblem):
    """Forward may-analysis: which acquisitions are live (unreleased).

    State values are ``"<var>:<line>"`` keys, one per acquire site, so
    two acquisitions into the same name are reported separately.
    """

    direction = "forward"
    mode = "may"

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: acquire key -> (var, acquire statement node)
        self.acquires: dict[str, tuple[str, CFGNode]] = {}
        #: Vars assigned from a ``claim()`` (see :func:`_escapes_var`).
        self.claimed: set[str] = set()
        self._gen: dict[int, State] = {}
        self._kill: dict[int, State] = {}
        for node in cfg.statements():
            stmt = node.stmt
            assert stmt is not None
            acquired = _acquired_var(stmt)
            if acquired is not None:
                key = f"{acquired[0]}:{node.lineno}"
                self.acquires[key] = (acquired[0], node)
                self._gen[node.index] = frozenset({key})
                if acquired[1] == "claim":
                    self.claimed.add(acquired[0])
        # Kills: any release / escape / reassignment of a tracked var.
        variables = {var for var, _node in self.acquires.values()}
        for node in cfg.statements():
            stmt = node.stmt
            assert stmt is not None
            killed: set[str] = set()
            for var in sorted(variables):
                acquired_here = self._gen.get(node.index, EMPTY)
                if any(key.startswith(f"{var}:") for key in acquired_here):
                    continue  # the acquiring statement itself
                if (_releases_var(stmt, var)
                        or self.escapes(stmt, var)
                        or _reassigns_var(stmt, var)):
                    killed.update(
                        key for key in self.acquires
                        if key.startswith(f"{var}:"))
            if killed:
                self._kill[node.index] = frozenset(killed)

    def escapes(self, stmt: ast.stmt, var: str) -> bool:
        return _escapes_var(stmt, var, var in self.claimed)

    def gen(self, node: CFGNode) -> State:
        return self._gen.get(node.index, EMPTY)

    def kill(self, node: CFGNode) -> State:
        return self._kill.get(node.index, EMPTY)


def _held_solution(func: FunctionAst) -> tuple[CFG, _HeldSlotsProblem,
                                               Solution]:
    cfg = build_cfg(func)
    problem = _HeldSlotsProblem(cfg)
    return cfg, problem, solve(cfg, problem)


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
            yield from self._check_function(context, func)

    def _check_function(self, context: FileContext,
                        func: FunctionAst) -> typing.Iterator[Diagnostic]:
        has_acquire = False
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ACQUIRE_ATTRS
                    and not node.args and not node.keywords):
                has_acquire = True
                break
        if not has_acquire:
            return
        cfg, problem, solution = _held_solution(func)
        for node in cfg.statements():
            stmt = node.stmt
            assert stmt is not None
            bare = _bare_acquire(stmt)
            if bare is not None:
                yield context.diagnostic(
                    self, bare,
                    f"result of {_dotted_name(bare.func)}() is discarded; "
                    "the slot can never be released")
        leaked_exit = solution.before(cfg.exit)
        leaked_raise = solution.before(cfg.raise_exit)
        # A var handed to a helper / returned transfers release
        # responsibility; don't second-guess its exception windows.
        escaped = {
            var for var, _node in problem.acquires.values()
            if any(problem.escapes(stmt_node.stmt, var)  # type: ignore[arg-type]
                   for stmt_node in cfg.statements())}
        for key in sorted(self.acquire_keys(problem)):
            var, node = problem.acquires[key]
            if key in leaked_exit:
                yield context.diagnostic(
                    self, node.stmt,  # type: ignore[arg-type]
                    f"resource request {var!r} is not released on every "
                    "path (an early return or fall-through skips "
                    "release()); release it in a finally:")
            elif key in leaked_raise and var not in escaped:
                yield context.diagnostic(
                    self, node.stmt,  # type: ignore[arg-type]
                    f"resource request {var!r} leaks if an exception "
                    "(e.g. an interrupt at a yield) fires while it is "
                    "held; move the release into a try/finally around "
                    "the holding section")

    @staticmethod
    def acquire_keys(problem: _HeldSlotsProblem) -> list[str]:
        return list(problem.acquires)


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
    #: ``yield from`` sub-generators that represent charged service time.
    charged_subgenerators = frozenset({
        "use", "charge_statedb", "compute", "acquire"})
    #: ``yield``-ed calls that are charged / bounded waits.
    charged_yields = frozenset({"timeout"})
    #: ``yield``-ed calls that are open-ended blocking waits.
    blocking_yields = frozenset({"get", "all_of", "any_of", "wait", "join"})

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if context.relpath in self.allowlist:
            return
        for func in iter_functions(context.tree):
            yield from self._check_function(context, func)

    def _check_function(self, context: FileContext,
                        func: FunctionAst) -> typing.Iterator[Diagnostic]:
        source = ast.dump(func)
        if not any(f"'{attr}'" in source for attr in ACQUIRE_ATTRS):
            return
        cfg, problem, solution = _held_solution(func)
        if not problem.acquires:
            return
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

    def _blocking_waits(self, stmt: ast.stmt, held: set[str]
                        ) -> typing.Iterator[tuple[str, ast.AST]]:
        for node in _own_scope_nodes(stmt):
            if isinstance(node, ast.YieldFrom):
                value = node.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)):
                    attr = value.func.attr
                    if attr in self.charged_subgenerators:
                        continue
                    if attr in self.blocking_yields:
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
                    if attr in self.charged_yields:
                        continue
                    if attr in self.blocking_yields:
                        # Reneging is fine: ``any_of([request, timeout])``
                        # mentioning the held request races its *own*
                        # grant against a patience timer — that is a
                        # grant wait, not a hold-across-wait.
                        if any(_mentions_name(arg, var)
                               for arg in value.args for var in held):
                            continue
                        yield (f"waiting on .{attr}(...)", node)


# ======================================================================
# SL013 — tracer span discipline
# ======================================================================

def _is_span_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"):
        return False
    receiver = _dotted_name(node.func.value)
    return "tracer" in receiver.lower()


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
        if "span" not in context.source:
            return
        for func in iter_functions(context.tree):
            yield from self._check_function(context, func)

    def _check_function(self, context: FileContext,
                        func: FunctionAst) -> typing.Iterator[Diagnostic]:
        cfg: CFG | None = None
        spans: dict[str, tuple[str, CFGNode]] = {}
        gen: dict[int, State] = {}
        kill: dict[int, State] = {}
        discarded: list[ast.AST] = []
        with_protected: set[int] = set()

        # ``with tracer.span(...):`` is the safe form — exempt those.
        for stmt in ast.walk(func):
            if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                continue
            for item in stmt.items:
                if _is_span_call(item.context_expr):
                    with_protected.add(id(item.context_expr))

        # Build the CFG lazily, only when a manual span shows up.
        for stmt_ast in ast.walk(func):
            if isinstance(stmt_ast, ast.Expr) and _is_span_call(
                    stmt_ast.value):
                discarded.append(stmt_ast.value)
            elif (isinstance(stmt_ast, ast.Assign)
                  and len(stmt_ast.targets) == 1
                  and isinstance(stmt_ast.targets[0], ast.Name)
                  and _is_span_call(stmt_ast.value)):
                if cfg is None:
                    cfg = build_cfg(func)
                node = cfg.node_for(stmt_ast)
                if node is None:
                    continue  # inside a nested function: its own CFG
                var = stmt_ast.targets[0].id
                key = f"{var}:{stmt_ast.lineno}"
                spans[key] = (var, node)
                gen[node.index] = frozenset({key})

        for value in discarded:
            yield context.diagnostic(
                self, value,
                "tracer span is created and discarded; use "
                "`with tracer.span(...):` so it opens and closes")
        if not spans or cfg is None:
            return

        # Kills: used as a context manager, explicitly closed, or escaped.
        variables = {var for var, _ in spans.values()}
        for node in cfg.statements():
            stmt = node.stmt
            assert stmt is not None
            killed: set[str] = set()
            for var in sorted(variables):
                if any(key.startswith(f"{var}:")
                       for key in gen.get(node.index, EMPTY)):
                    continue
                if self._closes_span(stmt, var) or _escapes_span(stmt, var):
                    killed.update(key for key in spans
                                  if key.startswith(f"{var}:"))
            if killed:
                kill[node.index] = frozenset(killed)

        problem = _TableProblem(gen, kill)
        solution = solve(cfg, problem)
        open_exit = solution.before(cfg.exit)
        open_raise = solution.before(cfg.raise_exit)
        for key in sorted(spans):
            var, node = spans[key]
            if key in open_exit or key in open_raise:
                where = ("an exception path"
                         if key not in open_exit else "every path")
                yield context.diagnostic(
                    self, node.stmt,  # type: ignore[arg-type]
                    f"span {var!r} is opened but not closed on {where}; "
                    "use `with tracer.span(...):` or close in a finally:")

    @staticmethod
    def _closes_span(stmt: ast.stmt, var: str) -> bool:
        # ``with s:`` / ``s.__exit__(...)`` / ``tracer._close(s)``.
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == var:
                    return True
        for node in _own_scope_nodes(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                if (node.func.attr in ("__exit__", "_close", "close")
                        and (_mentions_name(node.func.value, var)
                             or any(_mentions_name(a, var)
                                    for a in node.args))):
                    return True
        return False


def _mentions_name(node: ast.AST, var: str) -> bool:
    return any(isinstance(child, ast.Name) and child.id == var
               for child in ast.walk(node))


def _escapes_span(stmt: ast.stmt, var: str) -> bool:
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        return _mentions_name(stmt.value, var)
    for node in _own_scope_nodes(stmt):
        if (isinstance(node, ast.Call)
                and any(isinstance(arg, ast.Name) and arg.id == var
                        for arg in node.args)):
            func_attr = (node.func.attr
                         if isinstance(node.func, ast.Attribute) else "")
            if func_attr not in ("__exit__", "_close", "close"):
                return True
    return False


class _TableProblem(GenKillProblem):
    """A gen/kill problem from precomputed per-node tables."""

    direction = "forward"
    mode = "may"

    def __init__(self, gen: dict[int, State],
                 kill: dict[int, State]) -> None:
        self._gen = gen
        self._kill = kill

    def gen(self, node: CFGNode) -> State:
        return self._gen.get(node.index, EMPTY)

    def kill(self, node: CFGNode) -> State:
        return self._kill.get(node.index, EMPTY)


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
    #: Attribute calls that always produce a must-consume value.
    kernel_attrs = frozenset({"use", "acquire", "timeout",
                              "charge_statedb"})

    def check_project(self, project: ProjectContext
                      ) -> typing.Iterator[Diagnostic]:
        for module_name in sorted(project.modules):
            module = project.modules[module_name]
            for qualname in sorted(project.functions):
                info = project.functions[qualname]
                if info.module != module_name:
                    continue
                yield from self._check_function(project, module, info)

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
        if isinstance(func, ast.Attribute) and func.attr in self.kernel_attrs:
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
        callee, confidence = resolved
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

#: ``time`` module attributes that read the host clock.
_WALL_CLOCKS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns"})
#: Builtins whose value depends on the process (hash randomization, ids).
_HOST_BUILTINS = frozenset({"hash", "id"})
#: Calls that cleanse taint (deterministic of their inputs' *contents*).
_CLEANSERS = frozenset({
    "len", "sorted", "min", "max", "sum", "abs", "round", "range",
    "enumerate", "zip", "int", "float", "str", "repr", "bool", "tuple",
    "list"})
#: Scheduling sinks: a tainted argument here perturbs the event schedule.
_SINKS = frozenset({
    "timeout", "send", "put", "succeed", "schedule", "jittered",
    "exponential", "submit", "propose", "broadcast"})


def _source_label(call: ast.Call, module: ModuleInfo) -> str | None:
    """A deterministic label when ``call`` reads host state, else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        dotted = _dotted_name(func)
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-2] == "time" and (
                parts[-1] in _WALL_CLOCKS):
            return f"{dotted}()"
        if parts[-1] in ("now", "today") and parts[0] in (
                "datetime", "date") and not call.args and not call.keywords:
            return f"{dotted}()"
        if dotted in ("os.urandom", "uuid.uuid4"):
            return f"{dotted}()"
        return None
    if isinstance(func, ast.Name):
        if func.id in _HOST_BUILTINS:
            return f"{func.id}()"
        target = module.imports.get(func.id, "")
        if target.startswith("time.") and (
                target.split(".")[-1] in _WALL_CLOCKS):
            return f"{target}()"
        if target in ("uuid.uuid4", "os.urandom"):
            return f"{target}()"
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

    MAX_PASSES = 8

    def check_project(self, project: ProjectContext
                      ) -> typing.Iterator[Diagnostic]:
        summaries: dict[str, _FunctionFacts] = {
            qualname: _FunctionFacts()
            for qualname in project.functions}
        order = sorted(project.functions)
        for _ in range(self.MAX_PASSES):
            changed = False
            for qualname in order:
                info = project.functions[qualname]
                module = project.modules[info.module]
                facts, _diags = self._analyze(project, module, info,
                                              summaries)
                if facts.as_tuple() != summaries[qualname].as_tuple():
                    summaries[qualname] = facts
                    changed = True
            if not changed:
                break
        for qualname in order:
            info = project.functions[qualname]
            if info.context.relpath.startswith(self.allowlist_prefixes):
                continue
            module = project.modules[info.module]
            _facts, diags = self._analyze(project, module, info, summaries)
            yield from diags

    # -- intra-procedural propagation ----------------------------------

    def _analyze(self, project: ProjectContext, module: ModuleInfo,
                 info: FunctionInfo,
                 summaries: dict[str, _FunctionFacts]
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
                for node in _own_scope_nodes(stmt):
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
                 summaries: dict[str, _FunctionFacts]) -> frozenset[str]:
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
                     summaries: dict[str, _FunctionFacts],
                     report: bool) -> None:
        func = call.func
        sink_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        all_args = list(call.args) + [kw.value for kw in call.keywords]
        if sink_name in _SINKS:
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
    _draw_attrs = frozenset({"stream", "jittered", "exponential"})

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
        class_stack: list[str] = []

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
                and call.func.attr in self._draw_attrs):
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
