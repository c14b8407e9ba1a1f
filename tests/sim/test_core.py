"""Tests for the discrete-event simulation loop and processes."""

import gc
import weakref

import pytest

from repro.sim import Interrupt, Simulation


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulation()

    def proc(sim):
        yield sim.timeout(2.5)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        # Construction must raise before anything is scheduled, so the
        # deliberately-discarded result never perturbs the schedule.
        sim.timeout(-1)  # simlint: disable=SL012


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_timeout_rejected(delay):
    # Neither can pop in time order: NaN compares false with every bucket
    # bound and inf never migrates out of the far tier.
    sim = Simulation()
    with pytest.raises(ValueError, match="finite"):
        sim.timeout(delay)  # simlint: disable=SL012
    assert sim._seq == 0, "nothing was scheduled"


def test_timeout_carries_value():
    sim = Simulation()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1, value="hello")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["hello"]


def test_process_return_value():
    sim = Simulation()

    def proc(sim):
        yield sim.timeout(1)
        return 42

    result = sim.run(until=sim.process(proc(sim)))
    assert result == 42


def test_run_until_time_stops_early():
    sim = Simulation()
    ticks = []

    def ticker(sim):
        while True:
            yield sim.timeout(1)
            ticks.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert sim.now == 3.5


def test_run_until_time_advances_clock_when_heap_drains():
    sim = Simulation()

    def proc(sim):
        yield sim.timeout(1)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_time_rejected():
    sim = Simulation()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


@pytest.mark.parametrize("until", [float("nan"), float("inf")])
def test_run_until_non_finite_rejected(until):
    # A NaN horizon never stops a periodic process; draining to an
    # infinite one would leave the clock at inf.
    sim = Simulation()
    with pytest.raises(ValueError, match="finite"):
        sim.run(until=until)
    assert sim.now == 0.0


def test_processes_interleave_deterministically():
    sim = Simulation()
    order = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc(sim, "a", 1))
    sim.process(proc(sim, "b", 1.5))
    sim.run()
    assert order == ["a", "b", "a", "b"]


def test_simultaneous_events_fire_in_creation_order():
    sim = Simulation()
    order = []

    def proc(sim, name):
        yield sim.timeout(1)
        order.append(name)

    for name in ["first", "second", "third"]:
        sim.process(proc(sim, name))
    sim.run()
    assert order == ["first", "second", "third"]


def test_waiting_on_another_process_joins_it():
    sim = Simulation()

    def child(sim):
        yield sim.timeout(3)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result

    result = sim.run(until=sim.process(parent(sim)))
    assert result == "child-result"
    assert sim.now == 3


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulation()

    def child(sim):
        yield sim.timeout(1)
        return "done"

    def parent(sim, child_proc):
        yield sim.timeout(5)
        result = yield child_proc
        return (sim.now, result)

    child_proc = sim.process(child(sim))
    result = sim.run(until=sim.process(parent(sim, child_proc)))
    assert result == (5, "done")


def test_exception_in_process_propagates_to_joiner():
    sim = Simulation()

    def failing(sim):
        yield sim.timeout(1)
        raise RuntimeError("boom")

    def parent(sim):
        try:
            yield sim.process(failing(sim))
        except RuntimeError as error:
            return str(error)

    result = sim.run(until=sim.process(parent(sim)))
    assert result == "boom"


def test_unhandled_process_failure_surfaces_from_run():
    sim = Simulation()

    def failing(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(failing(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_a_type_error():
    sim = Simulation()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(TypeError):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulation()
    outcome = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            outcome.append((sim.now, interrupt.cause))

    def interrupter(sim, victim):
        yield sim.timeout(2)
        victim.interrupt("wake-up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert outcome == [(2, "wake-up")]


def test_interrupted_process_can_keep_running():
    sim = Simulation()

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(1)
        return sim.now

    def interrupter(sim, victim):
        yield sim.timeout(2)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    result = sim.run(until=victim)
    assert result == 3


def test_interrupt_of_dead_process_is_noop():
    sim = Simulation()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.process(quick(sim))
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_stale_target_cannot_double_resume_after_interrupt():
    sim = Simulation()
    resumed = []

    def sleeper(sim):
        try:
            yield sim.timeout(5)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
        yield sim.timeout(10)
        resumed.append("second-sleep")

    def interrupter(sim, victim):
        yield sim.timeout(1)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert resumed == ["interrupt", "second-sleep"]
    assert sim.now == 11


def test_event_succeed_twice_is_an_error():
    sim = Simulation()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulation()
    with pytest.raises(TypeError):
        sim.event().fail("not-an-exception")


def test_run_until_event():
    sim = Simulation()
    event = sim.event()

    def proc(sim, event):
        yield sim.timeout(4)
        event.succeed("fired")

    sim.process(proc(sim, event))
    result = sim.run(until=event)
    assert result == "fired"
    assert sim.now == 4


def test_run_until_event_that_never_fires_raises():
    sim = Simulation()
    event = sim.event()

    def proc(sim):
        yield sim.timeout(1)

    sim.process(proc(sim))
    with pytest.raises(RuntimeError):
        sim.run(until=event)


def test_any_of_returns_first_event():
    sim = Simulation()

    def proc(sim):
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(5, value="slow")
        result = yield sim.any_of([fast, slow])
        assert fast in result
        assert slow not in result
        return result[fast]

    result = sim.run(until=sim.process(proc(sim)))
    assert result == "fast"
    assert sim.now < 5


def test_all_of_waits_for_all():
    sim = Simulation()

    def proc(sim):
        first = sim.timeout(1, value=1)
        second = sim.timeout(5, value=2)
        result = yield sim.all_of([first, second])
        return result[first] + result[second]

    result = sim.run(until=sim.process(proc(sim)))
    assert result == 3
    assert sim.now == 5


def test_all_of_empty_fires_immediately():
    sim = Simulation()

    def proc(sim):
        yield sim.all_of([])
        return sim.now

    assert sim.run(until=sim.process(proc(sim))) == 0


def test_any_of_pending_timeouts_not_treated_as_fired():
    # Regression test: Timeout carries its value from creation, but must not
    # count as "already fired" when a condition is built over it.
    sim = Simulation()

    def proc(sim):
        slow = sim.timeout(10, value="slow")
        result = yield sim.any_of([slow, sim.timeout(2, value="quick")])
        assert slow not in result
        return sim.now

    assert sim.run(until=sim.process(proc(sim))) == 2


def test_condition_failure_propagates():
    sim = Simulation()

    def failing(sim):
        yield sim.timeout(1)
        raise ValueError("sub-event failed")

    def proc(sim):
        try:
            yield sim.all_of([sim.process(failing(sim)), sim.timeout(10)])
        except ValueError as error:
            return str(error)

    assert sim.run(until=sim.process(proc(sim))) == "sub-event failed"


def test_active_process_is_tracked():
    sim = Simulation()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1)

    handle = sim.process(proc(sim))
    sim.run()
    assert seen == [handle]
    assert sim.active_process is None


def test_negative_timeout_rejected_inside_process():
    sim = Simulation()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(-1e-9)

    process = sim.process(proc(sim))
    with pytest.raises(ValueError):
        sim.run(until=process)
    assert sim.now == 1.0


def _run_ending(how):
    """Run a one-process simulation that ends ``how``; return what the
    process saw of the collector's settings."""
    sim = Simulation()
    seen = []

    def watcher(sim):
        seen.append((gc.get_threshold(), gc.isenabled()))
        yield sim.timeout(1)
        seen.append((gc.get_threshold(), gc.isenabled()))
        if how == "failure":
            raise RuntimeError("boom")

    done = sim.process(watcher(sim))
    if how == "failure":
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
    elif how == "event":
        sim.run(until=done)
    elif how == "horizon":
        sim.run(until=0.5)
        sim.run(until=2.0)
    else:
        sim.run()
    assert len(seen) == 2
    return seen


@pytest.fixture
def caller_gc_settings():
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    yield
    gc.set_threshold(*thresholds)
    assert gc.isenabled() == enabled


ENDINGS = ["drain", "horizon", "event", "failure"]


@pytest.mark.usefixtures("caller_gc_settings")
@pytest.mark.parametrize("how", ENDINGS)
def test_run_pauses_the_collector_and_restores_the_callers_settings(how):
    gc.set_threshold(500, 11, 12)
    gc.enable()
    for thresholds, inside_enabled in _run_ending(how):
        assert not inside_enabled
        assert thresholds == (500, 11, 12)
    assert gc.isenabled()
    assert gc.get_threshold() == (500, 11, 12)


@pytest.mark.usefixtures("caller_gc_settings")
@pytest.mark.parametrize("how", ENDINGS)
def test_run_leaves_a_disabled_collector_disabled(how):
    gc.disable()
    try:
        for _thresholds, inside_enabled in _run_ending(how):
            assert not inside_enabled
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.usefixtures("caller_gc_settings")
def test_explicit_collect_runs_inside_the_loop():
    sim = Simulation()
    freed = []

    class Cyclic:
        pass

    def collector(sim):
        cyclic = Cyclic()
        cyclic.self = cyclic
        watch = weakref.ref(cyclic, lambda _ref: freed.append(sim.now))
        del cyclic
        yield sim.timeout(1)
        gc.collect()
        yield sim.timeout(1)

    sim.run(until=sim.process(collector(sim)))
    assert freed == [1.0]
