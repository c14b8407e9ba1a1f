"""Self-tests for every simlint rule: known-bad snippets must fire.

Each rule gets (at least) one minimal bad example asserting the expected
diagnostic, and one minimally different good example asserting silence —
so a rule regression shows up as a named failure here rather than as a
silently green lint run.
"""

import textwrap

from repro.analysis_tools.simlint import Severity, lint_source


def lint(source: str, relpath: str = "peer/example.py"):
    return lint_source(textwrap.dedent(source), relpath=relpath)


def rules_fired(source: str, relpath: str = "peer/example.py"):
    return [diag.rule for diag in lint(source, relpath)]


# ----------------------------------------------------------------------
# SL001 — random module use
# ----------------------------------------------------------------------

def test_sl001_fires_on_import_random():
    diags = lint("import random\n")
    assert [d.rule for d in diags] == ["SL001"]
    assert diags[0].severity is Severity.ERROR
    assert diags[0].line == 1
    assert "RngRegistry" in diags[0].message


def test_sl001_fires_on_from_random_import():
    assert rules_fired("from random import choice\n") == ["SL001"]


def test_sl001_fires_on_unseeded_random_instance():
    source = """
    import random
    r = random.Random()
    """
    assert rules_fired(source) == ["SL001", "SL001"]


def test_sl001_allows_rng_module_itself_but_not_unseeded():
    assert rules_fired("import random\n", relpath="sim/rng.py") == []
    assert rules_fired("import random\nr = random.Random()\n",
                       relpath="sim/rng.py") == ["SL001"]


def test_sl001_quiet_on_seeded_random():
    assert rules_fired("import random\nr = random.Random(42)\n",
                       relpath="sim/rng.py") == []


# ----------------------------------------------------------------------
# SL002 — wall-clock sources
# ----------------------------------------------------------------------

def test_sl002_fires_on_time_time():
    source = """
    import time
    t = time.time()
    """
    diags = lint(source)
    assert [d.rule for d in diags] == ["SL002"]
    assert "sim.now" in diags[0].message


def test_sl002_fires_on_perf_counter_and_monotonic():
    assert rules_fired("import time\nt = time.perf_counter()\n") == ["SL002"]
    assert rules_fired("import time\nt = time.monotonic()\n") == ["SL002"]
    assert rules_fired("from time import perf_counter\n") == ["SL002"]


def test_sl002_fires_on_argless_datetime_now():
    source = """
    import datetime
    stamp = datetime.datetime.now()
    """
    assert rules_fired(source) == ["SL002"]


def test_sl002_allows_timezone_aware_now_and_obs_tree():
    source = """
    import datetime
    stamp = datetime.datetime.now(datetime.timezone.utc)
    """
    assert rules_fired(source) == []
    assert rules_fired("import time\nt = time.time()\n",
                       relpath="obs/sampler.py") == []


def test_sl002_allows_time_sleep():
    assert rules_fired("import time\ntime.sleep(1)\n") == []


# ----------------------------------------------------------------------
# SL003 — unordered iteration feeding scheduling
# ----------------------------------------------------------------------

def test_sl003_fires_on_set_attribute_iteration_with_send():
    source = """
    class Node:
        def __init__(self):
            self.targets: set[str] = set()

        def broadcast_all(self, payload):
            for target in self.targets:
                self.send(target, payload)
    """
    diags = lint(source)
    assert [d.rule for d in diags] == ["SL003"]
    assert "sorted" in diags[0].message


def test_sl003_fires_on_set_call_iteration_with_yield():
    source = """
    def process(sim, names):
        for name in set(names):
            yield sim.timeout(1.0)
    """
    assert rules_fired(source) == ["SL003"]


def test_sl003_fires_on_dict_keys_iteration_with_send():
    source = """
    def flush(self):
        for name in self.peers.keys():
            self.send(name, "ping")
    """
    assert rules_fired(source) == ["SL003"]


def test_sl003_quiet_when_sorted():
    source = """
    class Node:
        def __init__(self):
            self.targets: set[str] = set()

        def broadcast_all(self, payload):
            for target in sorted(self.targets):
                self.send(target, payload)
    """
    assert rules_fired(source) == []


def test_sl003_quiet_without_scheduling_in_body():
    source = """
    def total(self):
        count = 0
        for target in self.targets:
            count += 1
        return count
    """
    assert rules_fired(source) == []


def test_sl003_fires_in_comprehension_feeding_processes():
    source = """
    def start_all(sim, names):
        return [sim.process(worker(n)) for n in set(names)]
    """
    assert rules_fired(source) == ["SL003"]


# ----------------------------------------------------------------------
# SL004 — mutable default arguments
# ----------------------------------------------------------------------

def test_sl004_fires_on_list_dict_set_defaults():
    source = """
    def f(items=[]):
        return items

    def g(mapping={}, members=set()):
        return mapping, members
    """
    assert rules_fired(source) == ["SL004", "SL004", "SL004"]


def test_sl004_fires_on_keyword_only_mutable_default():
    assert rules_fired("def f(*, acc=[]):\n    return acc\n") == ["SL004"]


def test_sl004_quiet_on_none_default():
    source = """
    def f(items=None):
        items = [] if items is None else items
        return items
    """
    assert rules_fired(source) == []


# ----------------------------------------------------------------------
# SL005 — bare / broad except
# ----------------------------------------------------------------------

def test_sl005_fires_on_bare_except():
    source = """
    try:
        risky()
    except:
        pass
    """
    diags = lint(source)
    assert [d.rule for d in diags] == ["SL005"]
    assert diags[0].severity is Severity.WARNING


def test_sl005_fires_on_except_exception():
    source = """
    try:
        risky()
    except Exception:
        pass
    """
    assert rules_fired(source) == ["SL005"]


def test_sl005_allows_reraise_and_specific_exceptions():
    source = """
    try:
        risky()
    except Exception:
        cleanup()
        raise
    try:
        risky()
    except ValueError:
        pass
    """
    assert rules_fired(source) == []


# ----------------------------------------------------------------------
# SL006 — float time equality
# ----------------------------------------------------------------------

def test_sl006_fires_on_equality_with_sim_now():
    source = """
    def ready(sim, deadline):
        return sim.now == deadline
    """
    diags = lint(source)
    assert [d.rule for d in diags] == ["SL006"]
    assert "float" in diags[0].message


def test_sl006_fires_on_not_equal_and_nested_attribute():
    source = """
    def changed(self, stamp):
        return stamp != self.sim.now
    """
    assert rules_fired(source) == ["SL006"]


def test_sl006_quiet_on_ordering_comparisons():
    source = """
    def expired(sim, deadline):
        return sim.now >= deadline
    """
    assert rules_fired(source) == []


# ----------------------------------------------------------------------
# SL007 — unguarded subtraction in timeout delays
# ----------------------------------------------------------------------

def test_sl007_fires_on_deadline_minus_now():
    source = """
    def wait_until(sim, deadline):
        yield sim.timeout(deadline - sim.now)
    """
    diags = lint(source)
    assert [d.rule for d in diags] == ["SL007"]
    assert "max(0.0" in diags[0].message


def test_sl007_quiet_when_guarded_with_max():
    source = """
    def wait_until(sim, deadline):
        yield sim.timeout(max(0.0, deadline - sim.now))
    """
    assert rules_fired(source) == []


def test_sl007_quiet_on_constant_and_draws():
    source = """
    def pause(sim, rng):
        yield sim.timeout(1.5)
        yield sim.timeout(rng.exponential("arrivals", 0.2))
    """
    assert rules_fired(source) == []


def test_sl007_fires_on_nested_subtraction():
    source = """
    def wait(sim, a, b):
        yield sim.timeout(min(5.0, a - b))
    """
    assert rules_fired(source) == ["SL007"]


# ----------------------------------------------------------------------
# SL008 — module-level mutable state in protocol packages
# ----------------------------------------------------------------------

def test_sl008_fires_on_module_level_dict_in_peer():
    diags = lint("CACHE = {}\n", relpath="peer/endorser.py")
    assert [d.rule for d in diags] == ["SL008"]
    assert "CACHE" in diags[0].message


def test_sl008_fires_on_annotated_list_in_orderer():
    assert rules_fired("pending: list[int] = []\n",
                       relpath="orderer/solo.py") == ["SL008"]


def test_sl008_quiet_outside_protocol_packages():
    assert rules_fired("CACHE = {}\n", relpath="metrics/export.py") == []


def test_sl008_quiet_on_constants_and_dunders():
    source = """
    __all__ = ["a", "b"]
    LIMIT = 16
    NAMES = ("x", "y")
    """
    assert rules_fired(source, relpath="ledger/ledger.py") == []


def test_sl008_quiet_on_class_attributes():
    source = """
    class Chain:
        def __init__(self):
            self.blocks = []
    """
    assert rules_fired(source, relpath="ledger/blockchain.py") == []


# ----------------------------------------------------------------------
# SL009 — direct mutation of node.crashed
# ----------------------------------------------------------------------

def test_sl009_fires_on_direct_crashed_assignment():
    diags = lint("node.crashed = True\n")
    assert [d.rule for d in diags] == ["SL009"]
    assert diags[0].severity is Severity.ERROR
    assert "crash()" in diags[0].message


def test_sl009_fires_on_self_crashed_in_protocol_code():
    source = """
    class Broker:
        def die(self):
            self.crashed = True
    """
    assert rules_fired(source,
                       relpath="orderer/kafka/broker.py") == ["SL009"]


def test_sl009_fires_on_annotated_and_augmented_assignment():
    assert rules_fired("self.crashed: bool = True\n") == ["SL009"]
    assert rules_fired("node.crashed |= True\n") == ["SL009"]


def test_sl009_quiet_in_the_crash_api_and_fault_injector():
    assert rules_fired("self.crashed = True\n",
                       relpath="runtime/node.py") == []
    assert rules_fired("node.crashed = True\n",
                       relpath="faults/injector.py") == []


def test_sl009_quiet_on_reads_and_crash_calls():
    source = """
    def poke(node):
        if node.crashed:
            return
        node.crash()
        node.recover()
    """
    assert rules_fired(source) == []


# ----------------------------------------------------------------------
# SL010 — state-database internals outside the ledger layer
# ----------------------------------------------------------------------

def test_sl010_fires_on_raw_world_state_access():
    diags = lint("value = ledger.state._data['k']\n")
    assert [d.rule for d in diags] == ["SL010"]
    assert diags[0].severity is Severity.ERROR
    assert "StateBackend" in diags[0].message


def test_sl010_fires_on_each_backend_internal():
    for attr in ("_prefetched", "_pending_cost", "_sorted_keys"):
        assert rules_fired(f"x = backend.{attr}\n") == ["SL010"], attr


def test_sl010_fires_on_writes_too():
    assert rules_fired("backend._pending_cost = 0.0\n") == ["SL010"]


def test_sl010_quiet_inside_ledger_and_statedb_packages():
    assert rules_fired("self._data[key] = value\n",
                       relpath="ledger/ledger.py") == []
    assert rules_fired("cost = self._pending_cost\n",
                       relpath="statedb/backend.py") == []


def test_sl010_quiet_on_the_public_interface():
    source = """
    def read(backend, key):
        value = backend.get(key)
        backend.drain_cost()
        return value
    """
    assert rules_fired(source) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def test_inline_suppression_silences_named_rule():
    source = "import random  # simlint: disable=SL001 -- test fixture\n"
    assert rules_fired(source) == []


def test_inline_suppression_is_rule_specific():
    source = "import random  # simlint: disable=SL002\n"
    assert rules_fired(source) == ["SL001"]


def test_bare_disable_silences_all_rules_on_line():
    source = "import random  # simlint: disable\n"
    assert rules_fired(source) == []


def test_file_level_suppression():
    source = """
    # simlint: disable-file=SL008
    CACHE = {}
    OTHER = []
    """
    assert rules_fired(source, relpath="peer/x.py") == []


def test_suppression_only_applies_to_its_line():
    source = """
    import random  # simlint: disable=SL001
    from random import choice
    """
    assert rules_fired(source) == ["SL001"]
