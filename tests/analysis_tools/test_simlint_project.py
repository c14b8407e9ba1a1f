"""Tests for the project symbol table, call resolution, and cross-file
rules."""

import ast
import textwrap

from repro.analysis_tools.simlint.engine import FileContext
from repro.analysis_tools.simlint.flow_rules import (
    DeterminismTaintRule,
    RngStreamAliasRule,
    UnyieldedCoroutineRule,
)
from repro.analysis_tools.simlint.project import ProjectContext


def ctx(relpath, source):
    source = textwrap.dedent(source)
    return FileContext(relpath=relpath, path=relpath,
                       tree=ast.parse(source), source=source)


def project_of(*contexts):
    return ProjectContext(list(contexts))


def findings(rule, *contexts):
    return sorted(
        (diag.path, diag.line, diag.rule)
        for diag in rule.check_project(project_of(*contexts)))


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------

def test_module_name_from_relpath():
    assert ProjectContext.module_name("peer/validator.py") == "peer.validator"
    assert ProjectContext.module_name("sim/__init__.py") == "sim"


def test_functions_indexed_by_qualname():
    project = project_of(ctx("peer/validator.py", """
        def helper():
            pass

        class BlockValidator:
            def _drain(self):
                yield 1
    """))
    assert "peer.validator.helper" in project.functions
    drain = project.functions["peer.validator.BlockValidator._drain"]
    assert drain.is_generator
    assert not project.functions["peer.validator.helper"].is_generator


def test_generator_detection_ignores_nested_frames():
    project = project_of(ctx("peer/x.py", """
        def outer():
            def inner():
                yield 1
            return inner

        def comprehender(items):
            return [x for x in items]
    """))
    assert not project.functions["peer.x.outer"].is_generator
    assert not project.functions["peer.x.comprehender"].is_generator


def test_import_resolution_strips_package_prefix():
    helpers = ctx("common/helpers.py", """
        def jitterless():
            pass
    """)
    user = ctx("peer/user.py", """
        from repro.common.helpers import jitterless

        def run():
            jitterless()
    """)
    project = project_of(helpers, user)
    module = project.modules["peer.user"]
    resolved = project.resolve_name(module, "jitterless")
    assert resolved is not None
    assert resolved.qualname == "common.helpers.jitterless"


def test_method_resolution_walks_named_bases():
    base = ctx("runtime/base.py", """
        class Node:
            def compute(self, cost):
                yield from self.cpu.use(cost)
    """)
    derived = ctx("peer/peer.py", """
        from repro.runtime.base import Node

        class Peer(Node):
            def run(self):
                yield from self.compute(1.0)
    """)
    project = project_of(base, derived)
    module = project.modules["peer.peer"]
    info = project.resolve_method(module, "Peer", "compute")
    assert info is not None
    assert info.qualname == "runtime.base.Node.compute"


# ----------------------------------------------------------------------
# Call resolution
# ----------------------------------------------------------------------

def test_call_graph_edges_direct_and_method():
    project = project_of(ctx("peer/x.py", """
        def helper():
            pass

        class Worker:
            def step(self):
                pass

            def run(self):
                helper()
                self.step()
                unknown()
    """))
    module = project.modules["peer.x"]
    caller = project.functions["peer.x.Worker.run"]

    def resolve(call):
        found = project.resolve_call(module, caller, call)
        return found and (found[0].qualname, found[1])

    assert [resolve(node.value) for node in caller.node.body] == [
        ("peer.x.helper", "direct"), ("peer.x.Worker.step", "method"), None]


# ----------------------------------------------------------------------
# SL012 — unyielded coroutine
# ----------------------------------------------------------------------

def test_sl012_bare_generator_method_call():
    found = findings(UnyieldedCoroutineRule(), ctx("peer/v.py", """
        class V:
            def _drain(self):
                yield 1

            def run(self):
                self._drain()
    """))
    assert [f[2] for f in found] == ["SL012"]


def test_sl012_bare_kernel_calls():
    found = findings(UnyieldedCoroutineRule(), ctx("peer/v.py", """
        class V:
            def run(self):
                self.pool.use(1.0)
                self.context.timeout(2.0)
                yield 1
    """))
    assert [f[2] for f in found] == ["SL012", "SL012"]


def test_sl012_clean_on_yield_from_and_process_spawn():
    assert findings(UnyieldedCoroutineRule(), ctx("peer/v.py", """
        class V:
            def _drain(self):
                yield 1

            def run(self):
                self.sim.process(self._drain())
                yield from self._drain()
                yield self.context.timeout(2.0)
    """)) == []


def test_sl012_clean_on_plain_function_call():
    assert findings(UnyieldedCoroutineRule(), ctx("peer/v.py", """
        class V:
            def _record(self, x):
                self.seen.append(x)

            def run(self):
                self._record(1)
                yield 1
    """)) == []


# ----------------------------------------------------------------------
# SL014 — inter-procedural determinism taint
# ----------------------------------------------------------------------

def test_sl014_wall_clock_through_helper_into_timeout():
    found = findings(DeterminismTaintRule(), ctx("peer/g.py", """
        import time

        def _now():
            return time.time()

        class G:
            def run(self):
                start = _now()
                yield self.context.timeout(start)
    """))
    assert [f[2] for f in found] == ["SL014"]


def test_sl014_tainted_argument_reaches_sink_in_callee():
    found = findings(DeterminismTaintRule(), ctx("peer/g.py", """
        import time

        class G:
            def _sleep(self, how_long):
                yield self.context.timeout(how_long)

            def run(self):
                skew = time.perf_counter()
                yield from self._sleep(skew)
    """))
    assert [f[2] for f in found] == ["SL014"]


def test_sl014_clean_on_seeded_rng_delay():
    assert findings(DeterminismTaintRule(), ctx("peer/g.py", """
        class G:
            def run(self):
                wait = self.context.rng.exponential("gossip.push", 0.5)
                yield self.context.timeout(wait)
    """)) == []


def test_sl014_cleanser_stops_taint():
    # len() of anything is deterministic of the value's contents.
    assert findings(DeterminismTaintRule(), ctx("peer/g.py", """
        import time

        class G:
            def run(self):
                stamp = str(time.time())
                yield self.context.timeout(len(stamp) * 0.0)
    """)) == []


def test_sl014_obs_package_is_allowlisted():
    assert findings(DeterminismTaintRule(), ctx("obs/profile.py", """
        import time

        def report(sink):
            sink.put(time.perf_counter())
    """)) == []


# ----------------------------------------------------------------------
# SL015 — RNG stream aliasing
# ----------------------------------------------------------------------

def test_sl015_constant_stream_shared_across_classes():
    found = findings(
        RngStreamAliasRule(),
        ctx("peer/endorser.py", """
            class Endorser:
                def run(self):
                    r = self.context.rng.stream("shared.jitter")
        """),
        ctx("orderer/batcher.py", """
            class Batcher:
                def run(self):
                    r = self.context.rng.stream("shared.jitter")
        """))
    assert [f[2] for f in found] == ["SL015", "SL015"]


def test_sl015_clean_on_per_component_names():
    assert findings(
        RngStreamAliasRule(),
        ctx("peer/endorser.py", """
            class Endorser:
                def run(self):
                    r = self.context.rng.stream(f"endorse.{self.name}")
                    s = self.context.rng.stream("endorse.vscc")
                    t = self.context.rng.jittered("endorse.vscc", 1.0, 0.1)
        """)) == []
