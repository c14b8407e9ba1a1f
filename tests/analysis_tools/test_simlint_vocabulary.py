"""Each role of simlint's vocabulary against each rule that reads it.

The kernel, tracer and host names the rules match live in one table
(:mod:`repro.analysis_tools.simlint.rules`).  These tests run over the
table's entries, so a name added there is shown to reach every rule
that reads its role.
"""

import textwrap

import pytest

from repro.analysis_tools.simlint.engine import Linter
from repro.analysis_tools.simlint.flow_rules import (
    BlockingYieldWhileHoldingRule,
    DeterminismTaintRule,
    ResourceLeakRule,
    RngStreamAliasRule,
    SpanLeakRule,
    UnyieldedCoroutineRule,
)
from repro.analysis_tools.simlint.rules import (
    BLOCKING_WAITS,
    CHARGED_SUBGENERATORS,
    CHARGED_YIELDS,
    HOST_CLOCKS,
    MUST_CONSUME,
    RNG_DRAWS,
    SCHEDULING_CALLS,
    SCHEDULING_SINKS,
    SIM_CLOCK_ATTRS,
    SLOT_CALLS,
    SPAN_CLOSES,
    FloatTimeEqualityRule,
    UnorderedIterationRule,
    WallClockRule,
)


def lint(rule, source):
    return Linter(rules=[rule]).lint_source(textwrap.dedent(source),
                                            relpath="peer/example.py")


def fired(rule, source):
    return [diag.rule for diag in lint(rule, source)]


# -- slot calls: SL011, SL016 ------------------------------------------

@pytest.mark.parametrize("call", sorted(SLOT_CALLS))
def test_every_slot_call_leaked_on_a_normal_path_is_sl011(call):
    diags = lint(ResourceLeakRule(), f"""
        def run(self):
            slot = self.pool.{call}()
            yield self.sim.timeout(1.0)
    """)
    assert [d.rule for d in diags] == ["SL011"]
    assert "not released on every path" in diags[0].message


@pytest.mark.parametrize("call", sorted(SLOT_CALLS))
def test_every_slot_call_released_in_a_finally_is_clean(call):
    assert fired(ResourceLeakRule(), f"""
        def run(self):
            slot = self.pool.{call}()
            try:
                yield self.sim.timeout(1.0)
            finally:
                self.pool.release(slot)
    """) == []


@pytest.mark.parametrize("call", sorted(SLOT_CALLS))
def test_store_get_under_every_slot_call_is_sl016(call):
    assert fired(BlockingYieldWhileHoldingRule(), f"""
        def run(self):
            slot = self.pool.{call}()
            try:
                msg = yield self.inbox.get()
            finally:
                self.pool.release(slot)
    """) == ["SL016"]


@pytest.mark.parametrize("call", sorted(SLOT_CALLS))
def test_the_claim_protocols_triggered_test_stays_clean(call):
    assert fired(BlockingYieldWhileHoldingRule(), f"""
        def run(self):
            held = self.cpu.{call}()
            try:
                if not held.triggered:
                    yield held
                yield self.sim.timeout(1.0)
            finally:
                self.cpu.release(held)
    """) == []


# -- waits under a held slot: SL016 ------------------------------------

@pytest.mark.parametrize("wait", sorted(BLOCKING_WAITS))
def test_every_blocking_wait_under_a_slot_is_sl016(wait):
    assert fired(BlockingYieldWhileHoldingRule(), f"""
        def run(self):
            slot = self.pool.request()
            try:
                yield slot
                yield self.inbox.{wait}()
            finally:
                self.pool.release(slot)
    """) == ["SL016"]


@pytest.mark.parametrize("form, call", [
    *(("yield from self.node.{}(1.0)", call)
      for call in sorted(CHARGED_SUBGENERATORS)),
    *(("yield self.sim.{}(1.0)", call) for call in sorted(CHARGED_YIELDS)),
])
def test_every_charged_wait_under_a_slot_is_clean(form, call):
    assert fired(BlockingYieldWhileHoldingRule(), f"""
        def run(self):
            slot = self.pool.request()
            try:
                yield slot
                {form.format(call)}
            finally:
                self.pool.release(slot)
    """) == []


# -- tracer spans: SL013 -----------------------------------------------

@pytest.mark.parametrize("close", sorted(SPAN_CLOSES))
def test_every_span_close_in_a_finally_is_clean(close):
    closing = ("self.tracer._close(span)" if close == "_close"
               else f"span.{close}()")
    assert fired(SpanLeakRule(), f"""
        def run(self):
            span = self.tracer.span("endorse", txid)
            try:
                yield from self._work()
            finally:
                {closing}
    """) == []


# -- must-consume kernel calls: SL012 ----------------------------------

@pytest.mark.parametrize("call", sorted(MUST_CONSUME))
def test_every_must_consume_call_left_bare_is_sl012(call):
    assert fired(UnyieldedCoroutineRule(), f"""
        class V:
            def run(self):
                self.pool.{call}(1.0)
                yield 1
    """) == ["SL012"]


# -- scheduling: SL003, SL014 ------------------------------------------

@pytest.mark.parametrize("call", sorted(SCHEDULING_CALLS))
def test_every_scheduling_call_under_set_iteration_is_sl003(call):
    assert fired(UnorderedIterationRule(), f"""
        def run(self, peers):
            for peer in set(peers):
                self.node.{call}(peer)
    """) == ["SL003"]


@pytest.mark.parametrize("sink", sorted(SCHEDULING_SINKS))
def test_every_scheduling_sink_fed_a_host_clock_is_sl014(sink):
    assert fired(DeterminismTaintRule(), f"""
        import time

        class G:
            def run(self):
                started = time.monotonic()
                self.context.{sink}(started)
    """) == ["SL014"]


# -- host clocks: SL002, SL014 -----------------------------------------

CLOCK_READS = [*(f"time.{clock}()" for clock in sorted(HOST_CLOCKS)),
               "datetime.now()", "datetime.datetime.now()",
               "date.today()"]


@pytest.mark.parametrize("read", CLOCK_READS)
def test_every_host_clock_read_is_sl002(read):
    assert fired(WallClockRule(), f"""
        import datetime
        import time

        stamp = {read}
    """) == ["SL002"]


@pytest.mark.parametrize("read", CLOCK_READS)
def test_every_host_clock_read_taints_a_sink_for_sl014(read):
    assert fired(DeterminismTaintRule(), f"""
        import datetime
        import time

        class G:
            def run(self):
                stamp = {read}
                yield self.context.timeout(stamp)
    """) == ["SL014"]


@pytest.mark.parametrize("read", ["datetime.now(tz)", "date.today(1)"])
def test_a_clock_read_with_arguments_is_left_alone(read):
    source = f"""
        import datetime

        class G:
            def run(self, tz):
                stamp = {read}
                yield self.context.timeout(stamp)
    """
    assert fired(WallClockRule(), source) == []
    assert fired(DeterminismTaintRule(), source) == []


# -- RNG draws: SL015; the simulated clock: SL006 ----------------------

@pytest.mark.parametrize("draw", sorted(RNG_DRAWS))
def test_every_rng_draw_shared_across_components_is_sl015(draw):
    assert fired(RngStreamAliasRule(), f"""
        class Endorser:
            def run(self):
                self.context.rng.{draw}("shared", 1.0)

        class Batcher:
            def run(self):
                self.context.rng.{draw}("shared", 1.0)
    """) == ["SL015", "SL015"]


@pytest.mark.parametrize("attr", sorted(SIM_CLOCK_ATTRS))
def test_every_sim_clock_attribute_compared_exactly_is_sl006(attr):
    assert fired(FloatTimeEqualityRule(), f"""
        def due(self, deadline):
            return self.sim.{attr} == deadline
    """) == ["SL006"]
