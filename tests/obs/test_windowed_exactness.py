"""Windowed utilization and queue depth are exact, not interpolated.

Every ``ResourceMonitor.on_state`` call of an observed run is recorded,
the piecewise-constant busy and queue values are integrated over the
measurement window by brute force, and each monitor's windowed
``utilization`` and ``mean_queue`` must match within 1e-12.  Two runs:
the CI ``trace --rate 60 --duration 4`` configuration (periodic slices)
and a 12-peer, 2-channel scale point (slices at the window edges and
the horizon only).
"""

from __future__ import annotations

import collections

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.runner import run_traced_point
from repro.experiments.scale import run_scale_point
from repro.fabric.network import FabricNetwork
from repro.obs.sampler import ResourceMonitor

RUNS = {
    "ci-trace": lambda: run_traced_point(rate=60.0, duration=4.0),
    "scale-12p2c": lambda: run_scale_point(peers=12, channels=2,
                                           users=10_000, rate=150.0,
                                           duration=4.0),
}


def _window_areas(calls, start, end):
    """Busy and queue areas over ``[start, end)`` from the state calls."""
    busy_area = queue_area = 0.0
    for (t0, busy, queue), (t1, _, _) in zip(
            calls, calls[1:] + [(max(end, calls[-1][0]), 0, 0)]):
        overlap = min(t1, end) - max(t0, start)
        if overlap > 0:
            busy_area += busy * overlap
            queue_area += queue * overlap
    return busy_area, queue_area


@pytest.mark.parametrize("name", sorted(RUNS))
def test_windowed_stats_match_brute_force_integrals(name, monkeypatch):
    calls = collections.defaultdict(list)
    networks = []
    on_state = ResourceMonitor.on_state
    run_workload = FabricNetwork.run_workload

    def record(monitor, busy, queue):
        calls[monitor].append((monitor.sim.now, busy, queue))
        on_state(monitor, busy, queue)

    def run(network, *args, **kwargs):
        networks.append(network)
        return run_workload(network, *args, **kwargs)

    monkeypatch.setattr(ResourceMonitor, "on_state", record)
    monkeypatch.setattr(FabricNetwork, "run_workload", run)
    RUNS[name]()
    (network,) = networks
    start, end = network.last_window
    elapsed = end - start
    monitors = network.obs.monitors.values()
    assert monitors
    for monitor in monitors:
        busy_area, queue_area = _window_areas(calls[monitor], start, end)
        if monitor.capacity:
            assert monitor.utilization(start, end) == pytest.approx(
                busy_area / (monitor.capacity * elapsed), abs=1e-12), (
                monitor.name)
        assert monitor.mean_queue(start, end) == pytest.approx(
            queue_area / elapsed, abs=1e-12), monitor.name
    # An edge that is no slice boundary was never recorded: it raises,
    # naming the monitor and the time, instead of interpolating.
    off_edge = start + 0.01
    with pytest.raises(ConfigurationError,
                       match=rf"monitor \S+: no checkpoint at t={off_edge}"):
        network.bottleneck_report(off_edge, end)
