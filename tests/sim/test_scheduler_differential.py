"""Scheduler tests: the two-tier kernel pops in binary-heap order.

The kernel schedules due-now events on a FIFO ring and timed events on a
calendar queue (:mod:`repro.sim.scheduler`).  It must pop exactly what a
single binary heap of ``(time, seq)`` keys would: every pop at the same
``(time, seq)``, in the same order.  These tests check that property from
the pop stream itself (:func:`tests.sim.heap_order.assert_heap_order`)
over the full golden scenario matrix, the fault scenarios, and
hand-built tie, bucket-boundary and horizon schedules; the golden digests
were first recorded on a binary-heap kernel and keep pinning the
schedules end to end.
"""

from __future__ import annotations

import types

import pytest

from repro.experiments import faults, perfbench
from repro.sim.core import Simulation
from repro.sim.sanitizer import TraceDigest
from tests.sim.heap_order import PopLog, assert_heap_order

#: The golden matrix: every perfbench scenario (8 at the time of
#: writing; the parametrisation tracks the registry).
MATRIX = sorted(perfbench.SCENARIOS)


def test_matrix_covers_at_least_eight_scenarios() -> None:
    """The matrix must not quietly shrink."""
    assert len(MATRIX) >= 8, MATRIX


@pytest.mark.parametrize("name", MATRIX)
def test_heap_and_array_digests_identical_and_golden(name: str) -> None:
    """Every pop is the heap's pop, and the schedule is the golden one."""
    scenario = perfbench.SCENARIOS[name].at_scale("smoke")
    network = perfbench._build_network(scenario, perfbench.GOLDEN_SEED)
    trace = TraceDigest(network.sim, keep_records=True).attach()
    network.run_workload()
    trace.detach()
    assert_heap_order(network.sim, trace.records)
    key = perfbench.golden_key(name, "smoke")
    goldens = perfbench.load_goldens()
    assert key in goldens, f"no committed golden for {key}"
    assert trace.hexdigest == goldens[key], (
        f"heap order holds but the schedule diverges from the committed "
        f"golden for {key}")


@pytest.mark.parametrize("name", sorted(faults.SCENARIOS))
def test_fault_scenarios_pop_in_heap_order(name: str) -> None:
    """Crash, recover and interrupt paths keep heap order too."""
    network = faults.get_scenario(name).build_network(seed=1)
    log = PopLog()
    network.sim.set_trace(log)
    network.run_workload()
    network.sim.set_trace(None)
    assert log, "the scenario must pop events"
    assert_heap_order(network.sim, log)


def _checked_run(build) -> PopLog:
    sim = Simulation()
    log = PopLog()
    sim.set_trace(log)
    build(sim)
    sim.run()
    assert_heap_order(sim, log)
    return log


def test_tie_break_order_identical_across_schedulers() -> None:
    """Many processes hitting the same instants: ties pop in seq order."""
    def build(sim: Simulation) -> None:
        def chain(initial):
            yield sim.timeout(initial)
            for _ in range(20):
                yield sim.timeout(0.0)
                yield sim.timeout(0.001)

        for index in range(16):
            sim.process(chain((index % 4) * 0.00025))

    log = _checked_run(build)
    times = [when for when, _ in log]
    assert len(times) > len(set(times)), "the schedule must contain ties"


def test_bucket_boundary_schedule_identical_across_schedulers() -> None:
    """Delays straddling exact bucket boundaries pop in heap order.

    The calendar tier routes on ``time < bucket_end``; delays landing
    exactly on multiples of the bucket width exercise the
    boundary-routing and bucket-rotation paths where an off-by-one would
    reorder pops.
    """
    from repro.sim.scheduler import DEFAULT_BUCKET_WIDTH as width

    def build(sim: Simulation) -> None:
        def chain(delays):
            for delay in delays:
                yield sim.timeout(delay)

        sim.process(chain([width, width, 0.0, width * 3]))
        sim.process(chain([width * 0.5, width * 1.5, width * 400]))
        sim.process(chain([0.0, width * 2, width * 2]))
        sim.process(chain([width * 1000, width * 0.1]))
        # A timer due exactly at the bucket end that the 1.0 s timer
        # opens, plus a later push for the same instant: that push must
        # still pop before the due-now timeout the first one schedules.
        sim.process(chain([1.0 + width, 0.0]))
        sim.process(chain([1.0, width]))

    _checked_run(build)


def test_horizon_limited_run_identical_across_schedulers() -> None:
    """An explicit run(until=...) horizon un-pops its lookahead exactly."""
    sim = Simulation()
    log = PopLog()
    sim.set_trace(log)

    def ticker():
        while True:
            yield sim.timeout(0.37)

    sim.process(ticker())
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert_heap_order(sim, log)
    assert [when for when, _ in log][-1] <= 10.0
    sim.run(until=20.0)
    assert_heap_order(sim, log)


# ----------------------------------------------------------------------
# The reference itself: hand-built pop streams it must reject
# ----------------------------------------------------------------------

def _state(next_seq: int, pending=()) -> types.SimpleNamespace:
    """A stand-in kernel with ``pending`` entries left in the far tier."""
    cal = types.SimpleNamespace(run=[], run_idx=0,
                                far=[(*key, None) for key in pending])
    return types.SimpleNamespace(_seq=next_seq, _fifo=[], _cal=cal)


def test_heap_order_accepts_a_heap_stream() -> None:
    assert_heap_order(_state(4, pending=[(3.0, 3)]),
                      [(0.0, 0), (0.0, 2), (1.0, 1)])


@pytest.mark.parametrize("state, records", [
    (_state(3), [(0.0, 0), (0.0, 2), (0.0, 1)]),       # pop out of order
    (_state(3), [(0.0, 0), (0.0, 2)]),                 # seq 1 skipped
    (_state(2), [(0.0, 0), (1.0, 0), (2.0, 1)]),       # seq 0 popped twice
    (_state(3, pending=[(1.0, 1)]), [(0.0, 0), (2.0, 2)]),  # pending < last
], ids=["out-of-order", "skipped-seq", "repeated-pop", "pending-before-last"])
def test_heap_order_rejects_non_heap_streams(state, records) -> None:
    with pytest.raises(AssertionError):
        assert_heap_order(state, records)
