"""Tests for bottleneck attribution and span statistics."""

import pytest

from repro.obs.report import (
    SATURATION_THRESHOLD,
    bottleneck_report,
    span_statistics,
)
from repro.obs.sampler import watch_resource, watch_store
from repro.obs.tracer import Tracer
from repro.sim import Simulation
from repro.sim.resources import Resource, Store


def _busy(sim, resource, start, hold):
    def proc():
        yield sim.timeout(start)
        yield from resource.use(hold)
    sim.process(proc())


def make_scenario():
    """One saturated pool, one idle pool, one deep queue."""
    sim = Simulation()
    tracer = Tracer(sim)
    hot = Resource(sim, capacity=1, name="peer0.validator.workers")
    cold = Resource(sim, capacity=2, name="osn0.cpu")
    mailbox = Store(sim, name="peer0.mailbox")
    monitors = {}
    for monitor in (
            watch_resource(hot, kind="pool", phase="validate"),
            watch_resource(cold, kind="cpu", phase="order"),
            watch_store(mailbox, phase="network")):
        monitors[monitor.name] = monitor
    _busy(sim, hot, 0.0, 9.5)
    _busy(sim, cold, 0.0, 1.0)
    for item in range(5):
        mailbox.put(item)

    def spans():
        with tracer.span("validate.block", category="validate",
                         node="peer0") as span:
            span.set_wait(0.25)
            yield sim.timeout(2.0)
        with tracer.span("endorse", category="execute", node="peer0"):
            yield sim.timeout(0.5)

    sim.process(spans())
    sim.run(until=10.0)
    return sim, tracer, monitors


def test_resources_ranked_by_utilization():
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    names = [usage.name for usage in report.resources]
    assert names[0] == "peer0.validator.workers"
    assert report.resource("osn0.cpu").utilization == pytest.approx(0.05)


def test_bottleneck_is_top_pool_and_saturated_phase_flagged():
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    assert report.bottleneck.name == "peer0.validator.workers"
    assert report.bottleneck.utilization == pytest.approx(0.95)
    assert report.bottleneck.saturated
    assert report.saturated_phase == "validate"


def test_queues_never_beat_pools_for_the_bottleneck():
    # The mailbox has mean depth 5 but capacity 0: it reflects pressure,
    # it cannot be the saturated server.
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    assert report.bottleneck.capacity > 0
    mailbox = report.resource("peer0.mailbox")
    assert mailbox.mean_queue == pytest.approx(5.0)


def test_equal_loads_tie_whatever_the_summation_order():
    # Both pools are busy 0.3 s of 1 s; peer1's busy time is summed as
    # 0.1 + 0.2 = 0.30000000000000004, which must not outrank peer0.
    sim = Simulation()
    tracer = Tracer(sim)
    single = Resource(sim, capacity=1, name="peer0.validator.workers")
    split = Resource(sim, capacity=1, name="peer1.validator.workers")
    monitors = {monitor.name: monitor
                for monitor in (watch_resource(single),
                                watch_resource(split))}

    def two_holds():
        yield from split.use(0.1)
        yield from split.use(0.2)

    _busy(sim, single, 0.0, 0.3)
    sim.process(two_holds())
    sim.run(until=1.0)
    assert split.monitor.utilization(0.0, 1.0) == 0.1 + 0.2 != 0.3
    report = bottleneck_report(tracer, monitors, 0.0, 1.0)
    assert [usage.name for usage in report.resources] == [
        "peer0.validator.workers", "peer1.validator.workers"]


def test_no_saturation_below_threshold():
    sim = Simulation()
    tracer = Tracer(sim)
    pool = Resource(sim, capacity=1, name="cpu")
    monitors = {"cpu": watch_resource(pool, phase="execute")}
    _busy(sim, pool, 0.0, 1.0)
    sim.run(until=10.0)
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    assert report.bottleneck.utilization < SATURATION_THRESHOLD
    assert report.saturated_phase == ""


def test_span_statistics_percentiles_and_window():
    sim = Simulation()
    tracer = Tracer(sim)

    def one_span(start, hold):
        yield sim.timeout(start)
        with tracer.span("validate.vscc", category="validate",
                         node="peer0") as span:
            span.set_wait(hold / 2)
            yield sim.timeout(hold)

    for index in range(10):
        sim.process(one_span(float(index), 0.01 * (index + 1)))
    sim.run()
    stats = span_statistics(tracer)
    (vscc,) = stats
    assert vscc.count == 10
    assert vscc.mean == pytest.approx(0.055)
    assert vscc.max == pytest.approx(0.10)
    assert 0.04 <= vscc.p50 <= 0.07
    assert vscc.p95 >= vscc.p50
    assert vscc.p99 >= vscc.p95
    assert vscc.wait_mean == pytest.approx(0.0275)
    # Windowing by span start time.
    windowed = span_statistics(tracer, start=5.0, end=8.0)
    assert windowed[0].count == 3


def test_report_render_and_as_dict():
    _sim, tracer, monitors = make_scenario()
    report = bottleneck_report(tracer, monitors, 0.0, 10.0)
    text = report.render(top=2)
    assert "bottleneck: peer0.validator.workers" in text
    assert "saturated phase: validate" in text
    assert "validate.block" in text
    payload = report.as_dict()
    assert payload["saturated_phase"] == "validate"
    assert payload["bottleneck"]["name"] == "peer0.validator.workers"
    assert len(payload["resources"]) == 3
    assert payload["window"] == [0.0, 10.0]
    with pytest.raises(KeyError):
        report.resource("nope")
    with pytest.raises(KeyError):
        report.span_stats("nope")
