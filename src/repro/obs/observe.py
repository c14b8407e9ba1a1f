"""The observability bundle: one tracer + monitors per run, and the
sliced run loop that checkpoints them."""

from __future__ import annotations

import math
import typing

from repro.common.errors import ConfigurationError
from repro.obs.report import BottleneckReport, bottleneck_report
from repro.obs.sampler import ResourceMonitor, watch_resource, watch_store
from repro.obs.tracer import Tracer

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.collector import MetricsCollector
    from repro.obs.critical_path import CriticalPathSummary
    from repro.sim.core import Simulation
    from repro.sim.resources import Resource, Store


class Observability:
    """Everything needed to observe one simulation run.

    Create one, install ``obs.tracer`` as the context's tracer *before*
    driving load, register the resources to watch, then::

        obs.run(horizon, edges=(window_start, window_end))
        report = obs.report(window_start, window_end)
        obs.write_chrome_trace("trace.json")

    ``sample_interval`` (seconds) adds a slice boundary at every multiple
    of it, which gives the Chrome counter tracks their resolution; with
    ``None`` the only boundaries are the edges and the horizon.
    """

    def __init__(self, sim: "Simulation",
                 sample_interval: float | None = None) -> None:
        if (sample_interval is not None
                and not 0 < sample_interval < math.inf):
            raise ConfigurationError(
                f"sample_interval must be finite and positive, got "
                f"{sample_interval}")
        self.sim = sim
        self.sample_interval = sample_interval
        self.tracer = Tracer(sim)
        self.monitors: dict[str, ResourceMonitor] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def watch_resource(self, resource: "Resource", name: str | None = None,
                       kind: str = "resource",
                       phase: str = "") -> ResourceMonitor:
        """Monitor a server pool; returns the attached monitor."""
        monitor = watch_resource(resource, name, kind=kind, phase=phase)
        monitor.tracer = self.tracer
        self.monitors[monitor.name] = monitor
        return monitor

    def watch_store(self, store: "Store", name: str | None = None,
                    phase: str = "") -> ResourceMonitor:
        """Monitor a queue's depth; returns the attached monitor."""
        monitor = watch_store(store, name, phase=phase)
        monitor.tracer = self.tracer
        self.monitors[monitor.name] = monitor
        return monitor

    def monitor(self, name: str) -> ResourceMonitor:
        return self.monitors[name]

    # ------------------------------------------------------------------
    # The sliced run
    # ------------------------------------------------------------------

    def run(self, until: float,
            edges: typing.Iterable[float] = ()) -> None:
        """Run the simulation to ``until`` in bounded slices.

        Every monitor is checkpointed at each slice boundary: each of
        ``edges`` inside ``[now, until]``, ``until`` itself and, with a
        ``sample_interval``, every multiple of it in between.  A bounded
        :meth:`~repro.sim.core.Simulation.run` resumes exactly where the
        last one stopped, so the slices pop the events one unbounded run
        would and observation adds none.  A multiple within float
        rounding of an edge is left out: the edge stands for it, and no
        sliver-thin interval reaches the counter tracks.
        """
        sim = self.sim
        now = sim.now
        anchors = {edge for edge in edges if now <= edge <= until} | {until}
        bounds = set(anchors)
        interval = self.sample_interval
        if interval is not None:
            step = math.floor(now / interval) + 1
            while (tick := step * interval) < until:
                if not any(math.isclose(tick, anchor) for anchor in anchors):
                    bounds.add(tick)
                step += 1
        monitors = self.monitors.values()
        for bound in sorted(bounds):
            sim.run(until=bound)
            for monitor in monitors:
                monitor.checkpoint()

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------

    def report(self, start: float | None = None,
               end: float | None = None) -> BottleneckReport:
        """Per-resource report over ``[start, end)`` (default: all)."""
        return bottleneck_report(self.tracer, self.monitors, start, end)

    def critical_path_summary(
            self, metrics: MetricsCollector) -> CriticalPathSummary:
        """Aggregated critical-path attribution for committed txs."""
        from repro.obs.critical_path import (
            extract_critical_paths,
            summarize_critical_paths,
        )

        return summarize_critical_paths(
            extract_critical_paths(self.tracer, metrics))

    def counter_events(self) -> list[dict[str, typing.Any]]:
        """Chrome counter events for every monitor's busy-server series."""
        events: list[dict[str, typing.Any]] = []
        for monitor in self.monitors.values():
            for when, busy in monitor.busy_series():
                events.append({
                    "name": monitor.name,
                    "ph": "C",
                    "ts": round(when * 1e6, 3),
                    "node": monitor.name.split(".", 1)[0],
                    "args": {"busy": round(busy, 4)},
                })
        return events

    def to_chrome_trace(self) -> dict[str, typing.Any]:
        """The full run as Chrome ``trace_event`` JSON (spans + counters)."""
        return self.tracer.to_chrome_trace(extra_events=self.counter_events())

    def write_chrome_trace(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
