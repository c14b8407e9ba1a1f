"""The simlint rule set: determinism and simulation-purity checks.

Every rule guards one way a discrete-event simulation quietly loses its
"same seed, same schedule" guarantee:

========  ==========================================================
SL001     ``random``-module use outside the seeded ``RngRegistry``
SL002     wall-clock reads (``time.time`` & friends, argless ``now()``)
SL003     iteration over sets / ``dict.keys()`` that feeds scheduling
SL004     mutable default arguments
SL005     bare or over-broad ``except`` clauses
SL006     ``==`` / ``!=`` against the float simulation clock
SL007     ``timeout()`` delays computed by unguarded subtraction
SL008     module-level mutable state in ``peer/``/``orderer/``/``ledger/``
SL009     direct mutation of ``node.crashed`` outside the crash API
SL010     reaching into state-database internals outside the ledger
========  ==========================================================

The kernel, tracer and host names that every simlint rule matches are
one table in this module (the vocabulary, below ``_dotted_name``).
"""

from __future__ import annotations

import ast
import typing

from repro.analysis_tools.simlint.diagnostics import Diagnostic, Severity
from repro.analysis_tools.simlint.engine import FileContext, Rule


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for nested attributes; ``""`` when not a name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ----------------------------------------------------------------------
# The vocabulary: every kernel, tracer and host name a rule matches.
# A call added to the kernel API needs one edit here, and every rule
# that reads its role picks it up.
# ----------------------------------------------------------------------

#: The slot call whose caller reads ``request.triggered`` to decide
#: whether to wait for the grant (SL011, SL016).
CLAIM = "claim"
#: Kernel calls that hand out a resource slot (SL011, SL016).
SLOT_CALLS = frozenset({"request", "acquire", CLAIM})
#: The kernel call that hands a slot back (SL011, SL016).
RELEASE = "release"
#: ``yield from`` sub-generators that charge simulated service time; a
#: slot held across one is busy on purpose (SL016).
CHARGED_SUBGENERATORS = frozenset({
    "use", "acquire", "charge_statedb", "compute"})
#: ``yield``-ed calls that are bounded, charged waits (SL016).
CHARGED_YIELDS = frozenset({"timeout"})
#: ``yield``-ed calls that wait open-endedly (SL016).
BLOCKING_WAITS = frozenset({"get", "all_of", "any_of", "wait", "join"})
#: Kernel calls whose result must be consumed: a sub-generator runs only
#: when driven, and a timeout schedules itself (SL012).  ``compute`` is
#: a project generator, which SL012 resolves to its definition.
MUST_CONSUME = frozenset({"use", "acquire", "charge_statedb", "timeout"})
#: Calls whose arguments decide what the kernel schedules, and when: a
#: host-dependent argument perturbs the schedule (SL014).
SCHEDULING_SINKS = frozenset({
    "timeout", "send", "put", "succeed", "schedule", "jittered",
    "exponential", "submit", "propose", "broadcast"})
#: Calls that (transitively) schedule events, so the order they run in
#: is the schedule's order (SL003).
SCHEDULING_CALLS = SCHEDULING_SINKS | SLOT_CALLS | {RELEASE} | {
    "process", "get", "fail", "interrupt", "_enqueue"}
#: ``RngRegistry`` methods that draw from a named stream (SL015).
RNG_DRAWS = frozenset({"stream", "jittered", "exponential"})
#: Attributes that hold the float simulated clock (SL006).
SIM_CLOCK_ATTRS = frozenset({"now", "_now"})
#: The tracer call that opens a span (on a receiver named ``*tracer*``),
#: and the calls that close one (SL013).
SPAN_OPEN = "span"
SPAN_CLOSES = frozenset({"__exit__", "_close", "close"})
#: ``time`` functions that read the host clock (SL002, SL014).
HOST_CLOCKS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns"})
#: Builtins whose value depends on the process: hash randomization and
#: object ids (SL014).
HOST_BUILTINS = frozenset({"hash", "id"})
#: Calls that read host entropy (SL014).
HOST_ENTROPY = frozenset({"os.urandom", "uuid.uuid4"})


def host_clock(dotted: str, call: ast.Call | None = None) -> bool:
    """Whether the name ``dotted`` reads the host clock (SL002, SL014).

    ``time.<clock>`` always does; ``datetime.now`` and ``date.today`` do
    when ``call`` passes them no argument.
    """
    head, _, tail = dotted.rpartition(".")
    if tail in HOST_CLOCKS and head.rpartition(".")[2] == "time":
        return True
    return (call is not None and not call.args and not call.keywords
            and tail in ("now", "today")
            and dotted.partition(".")[0] in ("datetime", "date"))


def _is_mutable_construction(node: ast.AST) -> bool:
    """True for expressions that build a fresh mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return name.split(".")[-1] in {
            "list", "dict", "set", "deque", "defaultdict", "Counter",
            "OrderedDict", "bytearray"}
    return False


class RandomUseRule(Rule):
    """SL001: all randomness must flow through ``sim/rng.py``.

    Outside the allowlisted RNG module, importing ``random`` (or names from
    it) is an error: components must draw from a named
    :class:`~repro.sim.rng.RngRegistry` stream so seeds replay.  Everywhere
    (including the RNG module itself), ``random.Random()`` with no seed
    argument is an error: it seeds from the OS entropy pool.
    """

    rule_id = "SL001"
    severity = Severity.ERROR
    description = "randomness outside the seeded RngRegistry"
    allowlist = ("sim/rng.py",)

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        allowed = context.relpath in self.allowlist
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import) and not allowed:
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield context.diagnostic(
                            self, node,
                            "import of the `random` module; draw from a "
                            "named RngRegistry stream instead")
            elif isinstance(node, ast.ImportFrom) and not allowed:
                if node.module is not None and (
                        node.module.split(".")[0] == "random"):
                    yield context.diagnostic(
                        self, node,
                        "import from the `random` module; draw from a "
                        "named RngRegistry stream instead")
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if (name in ("random.Random", "Random")
                        and not node.args and not node.keywords):
                    yield context.diagnostic(
                        self, node,
                        "unseeded random.Random() seeds from OS entropy; "
                        "pass an explicit seed")


class WallClockRule(Rule):
    """SL002: no wall-clock reads outside the observability allowlist.

    Simulated components must only ever consult ``sim.now``; a wall-clock
    read makes behaviour depend on host speed.  The ``obs/`` tree is
    allowlisted (self-profiling the *host* is its job).
    """

    rule_id = "SL002"
    severity = Severity.ERROR
    description = "wall-clock time source in simulated code"
    allowlist_prefixes = ("obs/",)

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if context.relpath.startswith(self.allowlist_prefixes):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                if node.attr in HOST_CLOCKS and host_clock(
                        _dotted_name(node)):
                    yield context.diagnostic(
                        self, node,
                        f"wall-clock read time.{node.attr}; simulated code "
                        "must use sim.now")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in HOST_CLOCKS:
                            yield context.diagnostic(
                                self, node,
                                f"import of wall clock time.{alias.name}; "
                                "simulated code must use sim.now")
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                # A time.<clock>() call is reported at its attribute.
                if host_clock(name, node) and not host_clock(name):
                    yield context.diagnostic(
                        self, node,
                        f"argless {name}() reads the wall clock; simulated "
                        "code must use sim.now")


class UnorderedIterationRule(Rule):
    """SL003: set / ``dict.keys()`` iteration must not feed scheduling.

    Sets of strings iterate in hash order, which varies with
    ``PYTHONHASHSEED``; feeding that order into message sends or event
    scheduling makes two same-seed runs diverge.  Wrap the iterable in
    ``sorted(...)`` to fix.
    """

    rule_id = "SL003"
    severity = Severity.ERROR
    description = "unordered iteration feeding event scheduling"

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        set_names = self._collect_set_names(context.tree)
        for node in ast.walk(context.tree):
            iters: list[tuple[ast.AST, ast.AST]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append((node.iter, node))
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend((gen.iter, node) for gen in node.generators)
            for iterable, body in iters:
                reason = self._unordered_reason(iterable, set_names)
                if reason and self._schedules(body):
                    yield context.diagnostic(
                        self, iterable,
                        f"iteration over {reason} feeds event scheduling; "
                        "wrap it in sorted(...) for a deterministic order")

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _collect_set_names(tree: ast.Module) -> set[str]:
        """Names (``x`` / ``self.x``) bound to sets anywhere in the file."""
        names: set[str] = set()

        def is_set_annotation(annotation: ast.AST) -> bool:
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            return _dotted_name(annotation).split(".")[-1] in (
                "set", "Set", "MutableSet", "AbstractSet")

        def is_set_value(value: ast.AST | None) -> bool:
            if value is None:
                return False
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            if isinstance(value, ast.Call):
                return _dotted_name(value.func).split(".")[-1] == "set"
            return False

        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                if is_set_annotation(node.annotation):
                    name = _dotted_name(node.target)
                    if name:
                        names.add(name)
            elif isinstance(node, ast.Assign):
                if is_set_value(node.value):
                    for target in node.targets:
                        name = _dotted_name(target)
                        if name:
                            names.add(name)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                if is_set_annotation(node.annotation):
                    names.add(node.arg)
        return names

    @staticmethod
    def _unordered_reason(iterable: ast.AST,
                          set_names: set[str]) -> str | None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(iterable, ast.Call):
            name = _dotted_name(iterable.func)
            tail = name.split(".")[-1] if name else ""
            if tail in ("set", "frozenset"):
                return "a set"
            if tail == "keys":
                return "dict.keys()"
            if tail in ("union", "intersection", "difference",
                        "symmetric_difference"):
                return f"a set ({tail}())"
            return None
        name = _dotted_name(iterable)
        if name and name in set_names:
            return f"the set {name!r}"
        if name and name.startswith("self.") and name[5:] in set_names:
            return f"the set {name!r}"
        return None

    @staticmethod
    def _schedules(body: ast.AST) -> bool:
        for node in ast.walk(body):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in SCHEDULING_CALLS):
                    return True
        return False


class MutableDefaultRule(Rule):
    """SL004: no mutable default arguments.

    A mutable default is shared across calls — state leaks between
    supposedly independent runs, the classic cross-run contamination bug.
    """

    rule_id = "SL004"
    severity = Severity.ERROR
    description = "mutable default argument"

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            arguments = node.args
            defaults = list(arguments.defaults) + [
                d for d in arguments.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_construction(default):
                    name = getattr(node, "name", "<lambda>")
                    yield context.diagnostic(
                        self, default,
                        f"mutable default argument in {name}(); default "
                        "to None and construct inside the body")


class BroadExceptRule(Rule):
    """SL005: no bare / over-broad ``except`` clauses.

    ``except:`` and ``except Exception:`` swallow determinism-contract
    failures (heap-corruption ValueErrors, interrupt leaks) and let the run
    limp on with silently wrong results.  A handler that re-raises is
    allowed.
    """

    rule_id = "SL005"
    severity = Severity.WARNING
    description = "bare or over-broad except clause"

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if self._reraises(node):
                continue
            yield context.diagnostic(
                self, node,
                f"{broad} swallows contract violations; catch the specific "
                "exception or re-raise")

    @staticmethod
    def _broad_name(type_node: ast.expr | None) -> str | None:
        if type_node is None:
            return "bare except:"
        names: list[ast.expr]
        if isinstance(type_node, ast.Tuple):
            names = list(type_node.elts)
        else:
            names = [type_node]
        for name_node in names:
            name = _dotted_name(name_node)
            if name in ("Exception", "BaseException"):
                return f"except {name}:"
        return None

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
        return False


class FloatTimeEqualityRule(Rule):
    """SL006: never compare the float simulation clock with ``==``/``!=``.

    ``sim.now`` accumulates float round-off; exact-equality tests pass or
    fail depending on the *history* of arithmetic, which is exactly what
    refactors change.  Compare with ``<``/``>=`` or an epsilon.
    """

    rule_id = "SL006"
    severity = Severity.ERROR
    description = "==/!= comparison against simulated time"

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if (isinstance(side, ast.Attribute)
                            and side.attr in SIM_CLOCK_ATTRS):
                        yield context.diagnostic(
                            self, node,
                            f"==/!= against {_dotted_name(side)} (float "
                            "simulated time); use an ordering comparison "
                            "or an epsilon")
                        break


class TimeoutDelayRule(Rule):
    """SL007: ``timeout()`` delays built by subtraction must be guarded.

    ``sim.timeout(deadline - sim.now)`` goes negative the moment the
    deadline slips and crashes the run (the kernel rejects scheduling into
    the past).  Guard the difference with ``max(0.0, ...)`` or restructure.
    Constants and direct draws are fine.
    """

    rule_id = "SL007"
    severity = Severity.WARNING
    description = "unguarded subtraction in a timeout() delay"

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "timeout"):
                continue
            if not node.args:
                continue
            delay = node.args[0]
            if self._unguarded_subtraction(delay):
                yield context.diagnostic(
                    self, delay,
                    "timeout() delay computed by subtraction can go "
                    "negative; guard it with max(0.0, ...)")

    @classmethod
    def _unguarded_subtraction(cls, delay: ast.AST) -> bool:
        """A ``-`` anywhere in ``delay`` not inside ``max()``/``abs()``."""
        if isinstance(delay, ast.Call):
            name = _dotted_name(delay.func).split(".")[-1]
            if name in ("max", "abs"):
                return False  # clamped subtree: exactly the required guard
        if isinstance(delay, ast.BinOp) and isinstance(delay.op, ast.Sub):
            return True
        return any(cls._unguarded_subtraction(child)
                   for child in ast.iter_child_nodes(delay))


class ModuleMutableStateRule(Rule):
    """SL008: no module-level mutable state in the protocol packages.

    A module-level dict/list/set in ``peer/``, ``orderer/``, or ``ledger/``
    outlives the simulation that wrote it: the second run in one process
    observes the first run's leftovers, and parallel/sharded execution
    turns it into a data race.  Hold state on node instances instead.
    """

    rule_id = "SL008"
    severity = Severity.ERROR
    description = "module-level mutable state in protocol code"
    prefixes = ("peer/", "orderer/", "ledger/")

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if not context.relpath.startswith(self.prefixes):
            return
        for node in context.tree.body:
            targets: list[ast.expr]
            value: ast.expr | None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if value is None or not _is_mutable_construction(value):
                continue
            names = [_dotted_name(t) for t in targets]
            if all(n.startswith("__") and n.endswith("__") for n in names
                   if n):
                continue  # dunders like __all__ are conventions, not state
            label = ", ".join(n for n in names if n) or "<target>"
            yield context.diagnostic(
                self, node,
                f"module-level mutable state {label!r}; move it onto a "
                "node or context instance")


class CrashMutationRule(Rule):
    """SL009: ``node.crashed`` is only mutated via ``crash()``/``recover()``.

    Setting the flag directly skips the network-layer side effects
    (dropping in-flight traffic, reviving the mailbox), so the "crashed"
    node keeps receiving messages — a fault model that quietly diverges
    from the one the fault injector replays.  Only the crash API in
    ``runtime/node.py`` and the ``faults/`` package may touch it.
    """

    rule_id = "SL009"
    severity = Severity.ERROR
    description = "direct mutation of node.crashed outside the crash API"
    allowlist = ("runtime/node.py",)
    allowlist_prefixes = ("faults/",)

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if (context.relpath in self.allowlist
                or context.relpath.startswith(self.allowlist_prefixes)):
            return
        for node in ast.walk(context.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "crashed"):
                    yield context.diagnostic(
                        self, node,
                        f"direct assignment to {_dotted_name(target)}; "
                        "call crash()/recover() so the network layer "
                        "stays consistent")


class StateDBInternalsRule(Rule):
    """SL010: state-database internals stay inside the ledger layer.

    The pluggable backends (``statedb/``) meter every data operation with
    a simulated cost; code that reaches around the
    :class:`~repro.statedb.backend.StateBackend` interface — touching the
    raw entry dict or key index, the prefetch buffer, or the accrued-cost
    accumulator — reads or writes state *for free*, which silently breaks
    both the cost model and the cache-coherence invariants.  Only the
    ``ledger/`` and ``statedb/`` packages may touch these attributes.
    """

    rule_id = "SL010"
    severity = Severity.ERROR
    description = "state-database internals accessed outside the ledger"
    allowlist_prefixes = ("ledger/", "statedb/")
    #: The private attributes that make up the backend's representation.
    _internals = frozenset({
        "_data", "_sorted_keys", "_prefetched", "_pending_cost"})

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        if context.relpath.startswith(self.allowlist_prefixes):
            return
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in self._internals):
                label = _dotted_name(node) or node.attr
                yield context.diagnostic(
                    self, node,
                    f"access to state-database internal {label!r}; go "
                    "through the StateBackend interface so the operation "
                    "is metered")


def default_rules() -> list[Rule]:
    """The full SL001–SL010 rule set, in id order."""
    return [RandomUseRule(), WallClockRule(), UnorderedIterationRule(),
            MutableDefaultRule(), BroadExceptRule(), FloatTimeEqualityRule(),
            TimeoutDelayRule(), ModuleMutableStateRule(),
            CrashMutationRule(), StateDBInternalsRule()]
