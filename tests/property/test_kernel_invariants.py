"""Property-based invariants of the simulation kernel.

The PR-5 hot-path work rewired the kernel's innermost machinery — inlined
event triggering, an uncontended fast path in :meth:`Resource.use`, daemon
and eager processes — so these tests pin the invariants that rewiring must
never break, over hypothesis-generated schedules rather than hand-picked
ones:

1. the event loop pops events in non-decreasing ``(time, seq)`` order,
   with ``seq`` breaking every time tie deterministically;
2. a :class:`Resource` conserves its slots under arbitrary interleavings
   of request / release / cancel, never exceeds capacity, and grants
   contended slots in strict FIFO order;
3. :class:`AnyOf` fires with the earliest sub-event and :class:`AllOf`
   fires once the latest fires, with fired sub-events recorded in
   schedule order.

The two-tier scheduler (FIFO ring + calendar bucket + far heap,
:mod:`repro.sim.scheduler`) must pop exactly what a binary heap of
``(time, seq)`` keys would.  Over hypothesis-generated schedules —
including adversarial horizons straddling bucket boundaries, cancel/re-arm
interleavings, and due-now tie storms — the pop stream is checked against
that heap order (:func:`tests.sim.heap_order.assert_heap_order`), and the
calendar tiers must hold their routing invariant (every far entry at or
beyond ``bucket_end``).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.core import Simulation
from repro.sim.sanitizer import TraceDigest
from repro.sim.scheduler import DEFAULT_BUCKET_WIDTH
from tests.sim.heap_order import PopLog, assert_heap_order

# Delays as integer tenths keep arithmetic exact: equal draws mean exactly
# equal simulated times, so tie-breaking is genuinely exercised.
delay_lists = st.lists(
    st.integers(min_value=0, max_value=50).map(lambda n: n / 10.0),
    min_size=1, max_size=30)


# ----------------------------------------------------------------------
# 1. Heap ordering
# ----------------------------------------------------------------------

@given(st.lists(delay_lists, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_pops_are_non_decreasing_in_time_then_seq(schedules):
    sim = Simulation()
    trace = TraceDigest(sim, keep_records=True).attach()

    def chain(delays):
        for delay in delays:
            yield sim.timeout(delay)

    for delays in schedules:
        sim.process(chain(delays))
    sim.run()
    trace.detach()
    assert trace.records, "the run must pop at least the init events"
    for earlier, later in zip(trace.records, trace.records[1:]):
        assert later.time >= earlier.time, (
            f"time went backwards: {earlier.format()} then {later.format()}")
        if later.time == earlier.time:
            assert later.seq > earlier.seq, (
                f"tie not broken by seq: {earlier.format()} then "
                f"{later.format()}")


@given(st.lists(delay_lists, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_same_schedule_same_digest(schedules):
    def run_once() -> str:
        sim = Simulation()
        trace = TraceDigest(sim, keep_records=False).attach()

        def chain(delays):
            for delay in delays:
                yield sim.timeout(delay)

        for delays in schedules:
            sim.process(chain(delays))
        sim.run()
        trace.detach()
        return trace.hexdigest

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# 2. Resource slot conservation
# ----------------------------------------------------------------------

@st.composite
def resource_workloads(draw):
    capacity = draw(st.integers(min_value=1, max_value=4))
    # Each job: (start delay, hold duration, patience).  A job cancels its
    # request (releases while still queued) if no slot arrives within its
    # patience — the timeout-race path release() documents as legal.
    jobs = draw(st.lists(
        st.tuples(st.integers(0, 30).map(lambda n: n / 10.0),
                  st.integers(0, 20).map(lambda n: n / 10.0),
                  st.one_of(st.none(),
                            st.integers(0, 15).map(lambda n: n / 10.0))),
        min_size=1, max_size=25))
    return capacity, jobs


@given(resource_workloads())
@settings(max_examples=150, deadline=None)
def test_slots_conserved_under_request_release_cancel(workload):
    from repro.sim.resources import Resource

    capacity, jobs = workload
    sim = Simulation()
    resource = Resource(sim, capacity=capacity, name="pool")
    held = 0
    max_held = 0
    outcomes = []

    def job(start, hold, patience):
        nonlocal held, max_held
        yield sim.timeout(start)
        request = resource.request()
        if patience is None:
            yield request
        else:
            fired = yield sim.any_of([request, sim.timeout(patience)])
            if request not in fired:
                # Gave up waiting: cancel the queued request.
                resource.release(request)
                outcomes.append("cancelled")
                return
        held += 1
        max_held = max(max_held, held)
        assert held <= capacity, "more holders than slots"
        try:
            yield sim.timeout(hold)
        finally:
            held -= 1
            resource.release(request)
        outcomes.append("served")

    for start, hold, patience in jobs:
        sim.process(job(start, hold, patience))
    sim.run()

    assert len(outcomes) == len(jobs), "every job must finish one way"
    assert held == 0
    assert resource.count == 0, "all slots returned"
    assert resource.queue_length == 0, "no request left queued"
    assert max_held <= capacity


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=12))
@settings(max_examples=100, deadline=None)
def test_contended_grants_are_fifo(capacity, waiters):
    from repro.sim.resources import Resource

    sim = Simulation()
    resource = Resource(sim, capacity=capacity)
    granted = []

    def hog():
        # Fill every slot so all subsequent requests are contended.
        requests = [resource.request() for _ in range(capacity)]
        for request in requests:
            yield request
        yield sim.timeout(1.0)
        for request in requests:
            resource.release(request)

    def waiter(index):
        yield sim.timeout(0.5)  # queue strictly after the hog holds all slots
        request = resource.request()
        try:
            yield request
            granted.append(index)
            yield sim.timeout(0.1)
        finally:
            resource.release(request)

    sim.process(hog())
    for index in range(waiters):
        sim.process(waiter(index))
    sim.run()
    assert granted == list(range(waiters)), "grant order must be FIFO"


# ----------------------------------------------------------------------
# 3. AnyOf / AllOf
# ----------------------------------------------------------------------

@given(delay_lists)
@settings(max_examples=150, deadline=None)
def test_any_of_fires_at_earliest_and_all_of_at_latest(delays):
    sim = Simulation()
    fired_at = {}

    def wait_any(events):
        yield sim.any_of(events)
        fired_at["any"] = sim.now

    def wait_all(events):
        yield sim.all_of(events)
        fired_at["all"] = sim.now

    any_events = [sim.timeout(delay) for delay in delays]
    all_events = [sim.timeout(delay) for delay in delays]
    sim.process(wait_any(any_events))
    sim.process(wait_all(all_events))
    sim.run()
    assert fired_at["any"] == min(delays)
    assert fired_at["all"] == max(delays)


@given(delay_lists)
@settings(max_examples=150, deadline=None)
def test_all_of_records_sub_events_in_schedule_order(delays):
    sim = Simulation()
    events = [sim.timeout(delay) for delay in delays]
    captured = {}

    def wait_all():
        captured["value"] = yield sim.all_of(events)

    sim.process(wait_all())
    sim.run()
    value = captured["value"]
    assert len(value) == len(events)
    # Sub-events must be recorded in pop order: by time, ties broken by
    # creation order (the creation seq is the heap tie-break).
    indices = [events.index(event) for event in value.events]
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert indices == expected


# ----------------------------------------------------------------------
# 4. The two-tier scheduler pops in binary-heap order
# ----------------------------------------------------------------------

# Adversarial horizons for the calendar tiers: quarter-bucket quanta mix
# due-now (0), sub-bucket, exact-boundary (multiples of 4 quanta), and
# far-future (hundreds of buckets) delays in one schedule, so entries
# land in every tier and migrate across bucket rotations.  Integer quanta
# keep equal draws exactly equal, so tie-breaking is exercised too.
_QUANTUM = DEFAULT_BUCKET_WIDTH / 4.0
adversarial_delays = st.lists(
    st.one_of(st.just(0),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=16),
              st.integers(min_value=380, max_value=420),
              st.integers(min_value=0, max_value=2000)),
    min_size=1, max_size=20).map(
        lambda ks: [k * _QUANTUM for k in ks])


def _start_chains(sim: Simulation, schedules) -> None:
    def chain(delays):
        for delay in delays:
            yield sim.timeout(delay)

    for delays in schedules:
        sim.process(chain(delays))


@given(st.lists(adversarial_delays, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_array_scheduler_matches_heap_under_adversarial_horizons(schedules):
    """Tier migration never reorders: every pop is the heap's pop."""
    sim = Simulation()
    log = PopLog()
    sim.set_trace(log)
    _start_chains(sim, schedules)
    sim.run()
    assert_heap_order(sim, log)
    assert len(log) == sim._seq, "a drained run pops every push"


@given(st.lists(adversarial_delays, min_size=1, max_size=6),
       st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_bounded_runs_resume_identically_across_schedulers(schedules,
                                                           horizon):
    """run(until=...) then run() pops the heap's global schedule.

    The bounded stop can land mid-bucket (the loop must un-pop its
    lookahead entry exactly); resuming must replay the remainder in heap
    order, and the split run must pop what an unsplit run pops.
    """
    sim = Simulation()
    log = PopLog()
    sim.set_trace(log)
    _start_chains(sim, schedules)
    sim.run(until=horizon)
    assert all(when <= horizon for when, _ in log)
    assert_heap_order(sim, log)
    sim.run()
    assert_heap_order(sim, log)

    whole = Simulation()
    unsplit = PopLog()
    whole.set_trace(unsplit)
    _start_chains(whole, schedules)
    whole.run()
    assert log == unsplit


class _TierInvariantHook:
    """Trace hook asserting the calendar routing invariants at every pop."""

    def __init__(self, sim: Simulation) -> None:
        self.cal = sim._cal
        self.pops = 0

    def record(self, when, seq, event) -> None:
        cal = self.cal
        self.pops += 1
        assert all(entry[0] >= cal.bucket_end for entry in cal.far), (
            f"far entry below bucket_end={cal.bucket_end}")
        # The run loop keeps run_idx in a local while it pops, so check
        # the whole bucket: its consumed prefix sorts first anyway.
        assert cal.run == sorted(cal.run), "bucket run lost its order"
        assert all(entry[0] < cal.bucket_end for entry in cal.run), (
            f"bucket entry at or beyond bucket_end={cal.bucket_end}")


@given(st.lists(adversarial_delays, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_calendar_far_tier_never_undercuts_bucket_end(schedules):
    """The routing invariant: far entries sit at or beyond bucket_end.

    Checked at every pop via a trace hook, so the invariant holds across
    bucket rotations, not just at the end.
    """
    sim = Simulation()
    hook = _TierInvariantHook(sim)
    sim.set_trace(hook)
    _start_chains(sim, schedules)
    sim.run()
    assert hook.pops == sim._seq


@st.composite
def interrupt_plans(draw):
    # Sleepers hold long timeouts; interrupters cancel them at generated
    # instants, after which each sleeper re-arms with a fresh (shorter)
    # timeout.  Interrupts landing after a sleeper finished are no-ops —
    # also worth exercising.
    sleepers = draw(st.lists(
        st.tuples(st.integers(0, 40),     # initial sleep (quanta)
                  st.integers(0, 1200),   # long nap: the cancel target
                  st.integers(0, 12)),    # re-armed nap after interrupt
        min_size=1, max_size=6))
    interrupts = draw(st.lists(
        st.tuples(st.integers(0, max(0, len(sleepers) - 1)),
                  st.integers(0, 1400)),  # when to interrupt (quanta)
        min_size=0, max_size=8))
    return sleepers, interrupts


@given(interrupt_plans())
@settings(max_examples=150, deadline=None)
def test_cancel_and_rearm_identical_across_schedulers(plan):
    """Interrupted timeouts stay scheduled; popping them later (with no
    waiter) must not disturb heap order, and the re-armed timeouts must
    fire at their own times."""
    from repro.sim.events import Interrupt

    sleepers, interrupts = plan
    sim = Simulation()
    log = PopLog()
    sim.set_trace(log)
    outcomes = []

    def sleeper(index, start, nap, renap):
        try:
            yield sim.timeout(start * _QUANTUM)
            yield sim.timeout(nap * _QUANTUM)
            outcomes.append((index, "slept", sim.now))
            return
        except Interrupt:
            pass
        # Cancelled: re-arm with the shorter nap, tolerating further
        # interrupts (each one cancels and re-arms again).
        while True:
            try:
                yield sim.timeout(renap * _QUANTUM)
                outcomes.append((index, "re-armed", sim.now))
                return
            except Interrupt:
                continue

    def interrupter(target, when):
        yield sim.timeout(when * _QUANTUM)
        target.interrupt("cancel")

    processes = [sim.process(sleeper(i, start, nap, renap))
                 for i, (start, nap, renap) in enumerate(sleepers)]
    for target_index, when in interrupts:
        sim.process(interrupter(processes[target_index], when))
    sim.run()
    assert_heap_order(sim, log)
    assert len(outcomes) == len(sleepers), "every sleeper finishes"
    for index, how, when in outcomes:
        start, nap, _ = sleepers[index]
        if how == "slept":
            assert when == start * _QUANTUM + nap * _QUANTUM


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_due_now_events_fire_in_fifo_order(count):
    """Due-now triggers (the FIFO ring tier) keep strict arrival order."""
    from repro.sim.events import Event

    sim = Simulation()
    log = PopLog()
    sim.set_trace(log)
    fired = []

    def firer(events):
        yield sim.timeout(1.0)
        # Trigger in reversed creation order: pop order must follow
        # the trigger (seq) order, not creation order.
        for event in reversed(events):
            event.succeed()
        yield sim.timeout(1.0)

    def waiter(index, event):
        yield event
        fired.append(index)

    events = [Event(sim) for _ in range(count)]
    for index, event in enumerate(events):
        sim.process(waiter(index, event))
    sim.process(firer(events))
    sim.run()
    assert fired == list(reversed(range(count)))
    assert_heap_order(sim, log)


@given(delay_lists)
@settings(max_examples=100, deadline=None)
def test_any_of_wins_by_earliest_delay_then_creation_order(delays):
    sim = Simulation()
    events = [sim.timeout(delay) for delay in delays]
    captured = {}

    def wait_any():
        captured["value"] = yield sim.any_of(events)

    sim.process(wait_any())
    sim.run()
    value = captured["value"]
    # Exactly one sub-event fires before AnyOf triggers, and it is the
    # earliest timeout; the creation seq breaks delay ties.
    assert len(value) == 1
    winner = value.events[0]
    assert winner in value
    assert winner.delay == min(delays)
    assert events.index(winner) == delays.index(min(delays))
