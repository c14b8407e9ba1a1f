"""Tests for the per-resource queueing records and their Little's-law
check."""

import pytest

from repro.obs.report import bottleneck_report, resource_stats
from repro.obs.sampler import watch_resource, watch_store
from repro.obs.tracer import Tracer
from repro.sim import Simulation
from repro.sim.resources import Resource, Store


def contended_run(capacity=1, workers=3, hold=1.0, checkpoints=()):
    sim = Simulation()
    resource = Resource(sim, capacity=capacity, name="cpu")
    monitor = watch_resource(resource, phase="validate")

    def worker():
        yield from resource.use(hold)

    for _ in range(workers):
        sim.process(worker())
    for when in checkpoints:
        sim.run(until=when)
        monitor.checkpoint()
    sim.run()
    return sim, monitor


def test_stats_report_exact_queueing_quantities():
    _sim, monitor = contended_run()
    stats = resource_stats(monitor)
    # 3 one-second holds back to back on one server over 3 seconds.
    assert stats.lifetime == pytest.approx(3.0)
    assert stats.utilization == pytest.approx(1.0)
    assert stats.arrivals == 3
    assert stats.completions == 3
    assert stats.cancels == 0
    assert stats.throughput == pytest.approx(1.0)
    # Waits 0s, 1s, 2s; queue integral 3 queue-seconds over 3 seconds.
    assert stats.mean_wait == pytest.approx(1.0)
    assert stats.p50_wait <= stats.p95_wait <= stats.p99_wait
    assert stats.mean_queue == pytest.approx(1.0)
    assert stats.mean_service == pytest.approx(1.0)
    assert stats.phase == "validate"


def test_littles_law_holds_on_a_clean_run():
    _sim, monitor = contended_run()
    stats = resource_stats(monitor)
    # L = (busy + queue integrals) / T = (3 + 3) / 3 = 2 requests.
    assert stats.occupancy_l == pytest.approx(2.0)
    # lambda * W = (waits + services) / T = (3 + 3) / 3: same quantity
    # measured through the per-request path.
    assert stats.lambda_w == pytest.approx(2.0)
    assert stats.little_error == pytest.approx(0.0)
    assert stats.little_ok


def test_littles_law_flags_requests_stuck_at_the_window_edge():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def holder():
        yield from resource.use(10.0)

    sim.process(holder())
    sim.run(until=5.0)
    stats = resource_stats(monitor)
    # The slot is occupied (L = 1) but no service completed yet, so the
    # per-request side has recorded nothing: a genuine inconsistency the
    # check must surface rather than paper over.
    assert stats.occupancy_l == pytest.approx(1.0)
    assert stats.lambda_w == pytest.approx(0.0)
    assert not stats.little_ok
    assert stats.little_error == pytest.approx(1.0)


def test_idle_resource_passes_trivially():
    sim = Simulation()
    resource = Resource(sim, capacity=2, name="spare")
    monitor = watch_resource(resource)

    def ticker():
        yield sim.timeout(4.0)

    sim.process(ticker())
    sim.run()
    stats = resource_stats(monitor)
    assert stats.occupancy_l == 0.0
    assert stats.little_error == 0.0
    assert stats.little_ok


def test_store_monitors_skip_the_check():
    sim = Simulation()
    store = Store(sim, name="mailbox")
    monitor = watch_store(store, phase="network")

    def producer():
        store.put("a")
        yield sim.timeout(2.0)

    sim.process(producer())
    sim.run()
    stats = resource_stats(monitor)
    assert stats.kind == "queue"
    assert stats.little_error is None
    assert stats.little_ok   # never a violation without a check


def test_windowed_stats_keep_the_lifetime_check():
    _sim, monitor = contended_run(checkpoints=(2.0,))
    stats = resource_stats(monitor, start=0.0, end=2.0)
    assert stats.utilization == pytest.approx(1.0)
    # Little's law compares lifetime accumulations, whatever the window.
    assert stats.lifetime == pytest.approx(3.0)
    assert stats.occupancy_l == pytest.approx(2.0)
    assert stats.lambda_w == pytest.approx(2.0)
    assert stats.little_error == pytest.approx(0.0)
    assert stats.throughput == pytest.approx(1.0)


def test_cancelled_requests_are_counted():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = watch_resource(resource)

    def holder():
        yield from resource.use(2.0)

    def quitter():
        request = resource.request()
        try:
            yield sim.timeout(1.0)
        finally:
            resource.release(request)

    sim.process(holder())
    sim.process(quitter())
    sim.run()
    stats = resource_stats(monitor)
    assert stats.cancels == 1
    assert stats.completions == 1


def test_report_orders_by_utilization_and_aggregates_violations():
    sim = Simulation()
    busy = Resource(sim, capacity=1, name="busy")
    idle = Resource(sim, capacity=1, name="idle")
    monitors = {"busy": watch_resource(busy), "idle": watch_resource(idle)}

    def worker():
        yield from busy.use(3.0)

    sim.process(worker())
    sim.run()
    report = bottleneck_report(Tracer(sim), monitors)
    assert [stats.name for stats in report.resources] == ["busy", "idle"]
    assert report.little_ok
    assert report.violations == []
    payload = report.as_dict()
    assert payload["little_ok"] is True
    assert set(payload["resources"]) == {"busy", "idle"}


def test_render_flags_violations_and_truncates():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="stuck")
    monitor = watch_resource(resource)

    def holder():
        yield from resource.use(10.0)

    sim.process(holder())
    sim.run(until=5.0)
    report = bottleneck_report(Tracer(sim), {"stuck": monitor})
    text = report.render(top=0)
    assert "... 1 more resources" in text
    assert "LITTLE'S-LAW VIOLATIONS: stuck" in text
    clean = bottleneck_report(Tracer(sim), {})
    assert "consistent within 5%" in clean.render()


def test_tolerance_is_configurable():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="stuck")
    monitor = watch_resource(resource)

    def holder():
        yield from resource.use(10.0)

    sim.process(holder())
    sim.run(until=5.0)
    # 100% relative error: fails at 5%, passes with tolerance >= 1.0.
    assert not resource_stats(monitor).little_ok
    assert resource_stats(monitor, tolerance=1.0).little_ok
