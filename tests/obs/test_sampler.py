"""Tests for resource monitors and the sliced observed run."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.observe import Observability
from repro.obs.sampler import watch_resource, watch_store
from repro.sim import Simulation
from repro.sim.resources import Resource, Store


def test_monitor_tracks_exact_busy_integral():
    sim = Simulation()
    resource = Resource(sim, capacity=2, name="pool")
    monitor = watch_resource(resource, kind="pool", phase="validate")

    def worker(hold):
        yield from resource.use(hold)

    sim.process(worker(4.0))
    sim.process(worker(2.0))
    sim.run()
    # Busy integral: 2 servers for 2s, then 1 server for 2s = 6 busy-sec
    # over capacity 2 x 4s elapsed.
    assert monitor.utilization(0.0, 4.0) == pytest.approx(6.0 / 8.0)
    assert monitor.utilization() == pytest.approx(6.0 / 8.0)


def test_monitor_queue_depth_and_wait_distribution():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(1.0)

    for _ in range(3):
        sim.process(worker())
    sim.run()
    assert monitor.grants == 3
    assert monitor.max_queue == 2
    # Waits: 0s, 1s, 2s.
    assert monitor.waits.count == 3
    assert monitor.waits.mean == pytest.approx(1.0)
    # Queue integral: 2 waiting for 1s, 1 waiting for 1s, 0 after = 3.
    assert monitor.mean_queue(0.0, 3.0) == pytest.approx(1.0)


def test_windowed_utilization_is_exact_at_checkpoints():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield sim.timeout(2.0)
        yield from resource.use(4.0)

    def checkpoints():
        for _ in range(3):
            yield sim.timeout(4.0)
            monitor.checkpoint()

    sim.process(worker())
    sim.process(checkpoints())
    sim.run()
    # Busy exactly during [2, 6): full window has 4 busy of 12 elapsed.
    assert monitor.utilization(0.0, 12.0) == pytest.approx(4.0 / 12.0)
    # [4, 8) straddles two checkpoints: busy [4, 6) = half the window.
    assert monitor.utilization(4.0, 8.0) == pytest.approx(0.5)
    # t=2 is no checkpoint: the integral there was never recorded.
    with pytest.raises(ConfigurationError, match="cpu.*t=2.0"):
        monitor.utilization(0.0, 2.0)


def test_store_monitor_records_depth():
    sim = Simulation()
    store = Store(sim, name="mailbox")
    monitor = watch_store(store, phase="network")

    def producer():
        store.put("a")
        store.put("b")
        yield sim.timeout(2.0)
        yield store.get()

    sim.process(producer())
    sim.run()
    assert monitor.capacity == 0
    assert monitor.kind == "queue"
    assert monitor.utilization() == 0.0       # queues cannot saturate
    assert monitor.mean_queue(0.0, 2.0) == pytest.approx(2.0)
    assert monitor.max_queue == 2


def test_sampler_checkpoints_all_monitors_and_stops_at_until():
    def load(sim, resource):
        def worker():
            for _ in range(6):
                yield from resource.use(0.7)
        sim.process(worker())

    bare = Simulation()
    load(bare, Resource(bare, capacity=1))
    bare.run(until=5.0)

    sim = Simulation()
    obs = Observability(sim, sample_interval=1.0)
    resource = Resource(sim, capacity=1, name="cpu")
    cpu = obs.watch_resource(resource)
    mailbox = obs.watch_store(Store(sim, name="mailbox"))
    load(sim, resource)
    # The edge at 7.0 lies past the horizon and makes no slice.
    obs.run(5.0, edges=(2.5, 7.0))
    assert sim.now == 5.0
    assert sim.events_processed == bare.events_processed
    for monitor in (cpu, mailbox):
        assert [point.time for point in monitor.checkpoints] == [
            1.0, 2.0, 2.5, 3.0, 4.0, 5.0]
    assert cpu.utilization(2.5, 5.0) == pytest.approx(1.7 / 2.5)

    # Without an interval the edges and the horizon are the boundaries.
    sim = Simulation()
    obs = Observability(sim)
    monitor = obs.watch_resource(Resource(sim, capacity=1, name="cpu"))
    obs.run(4.0, edges=(1.5,))
    assert [point.time for point in monitor.checkpoints] == [1.5, 4.0]

    # A multiple within float rounding of an edge (3 * 0.1 is
    # 0.30000000000000004) yields to the edge: no sliver-thin slice.
    sim = Simulation()
    obs = Observability(sim, sample_interval=0.1)
    monitor = obs.watch_resource(Resource(sim, capacity=1, name="cpu"))
    obs.run(0.5, edges=(0.3,))
    assert [point.time for point in monitor.checkpoints] == [
        0.1, 0.2, 0.3, 0.4, 0.5]


def test_sampler_rejects_non_positive_interval():
    sim = Simulation()
    for interval in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="sample_interval"):
            Observability(sim, sample_interval=interval)
    assert Observability(sim).sample_interval is None


def test_busy_series_reports_per_interval_means():
    sim = Simulation()
    resource = Resource(sim, capacity=2, name="pool")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(1.0)

    def checkpoints():
        monitor.checkpoint()
        yield sim.timeout(2.0)
        monitor.checkpoint()
        yield sim.timeout(2.0)
        monitor.checkpoint()

    sim.process(worker())
    sim.process(worker())
    sim.process(checkpoints())
    sim.run()
    series = monitor.busy_series()
    assert series[0] == (2.0, pytest.approx(1.0))   # 2 busy for 1s of 2s
    assert series[1] == (4.0, pytest.approx(0.0))


def test_unobserved_resource_has_no_monitor_attached():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    assert resource.monitor is None
    assert store.monitor is None
    assert resource.name is None
    assert store.name is None


def test_zero_duration_windows_report_zero_not_nan():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(2.0)

    sim.process(worker())
    sim.run()
    # Degenerate and inverted windows must be exactly zero, never a
    # division by a zero (or negative) elapsed time.
    assert monitor.utilization(1.0, 1.0) == 0.0
    assert monitor.mean_queue(1.0, 1.0) == 0.0
    assert monitor.utilization(3.0, 1.0) == 0.0
    elapsed, busy, queue, _t0 = monitor._window(1.0, 1.0)
    assert (elapsed, busy, queue) == (0.0, 0.0, 0.0)


def test_coincident_checkpoints_skip_zero_duration_intervals():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def worker():
        yield from resource.use(1.0)

    def checkpoints():
        monitor.checkpoint()
        monitor.checkpoint()      # same instant: zero-duration interval
        yield sim.timeout(2.0)
        monitor.checkpoint()
        monitor.checkpoint()

    sim.process(worker())
    sim.process(checkpoints())
    sim.run()
    # The doubled checkpoints contribute no intervals; the one real
    # interval averages 1 busy-second over 2 seconds.
    assert monitor.busy_series() == [(2.0, pytest.approx(0.5))]


def test_monitor_records_service_times_and_cancels():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def holder():
        yield from resource.use(3.0)

    def quitter():
        request = resource.request()   # queued behind the holder
        try:
            yield sim.timeout(1.0)
        finally:
            resource.release(request)  # withdrawn before its grant

    sim.process(holder())
    sim.process(quitter())
    sim.run()
    assert monitor.services.count == 1
    assert monitor.services.total == pytest.approx(3.0)
    assert monitor.cancels == 1
    # The cancelled request never reached the wait histogram.
    assert monitor.waits.count == 1


def test_acquire_reports_measured_wait_to_the_tracer():
    from repro.obs.tracer import Tracer

    sim = Simulation()
    tracer = Tracer(sim)
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)
    monitor.tracer = tracer

    def worker(label):
        with tracer.span(label, node="peer"):
            request = yield from resource.acquire()
            try:
                yield sim.timeout(2.0)
            finally:
                resource.release(request)

    sim.process(worker("first"))
    sim.process(worker("second"))
    sim.run()
    waits = {span.name: span.wait for span in tracer.spans}
    assert waits["first"] == pytest.approx(0.0)   # immediate grant
    assert waits["second"] == pytest.approx(2.0)  # queued behind first
