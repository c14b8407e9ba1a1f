"""The observability bundle: one tracer + monitors + sampler per run."""

from __future__ import annotations

import typing

from repro.obs.report import BottleneckReport, bottleneck_report
from repro.obs.sampler import (
    ResourceMonitor,
    UtilizationSampler,
    watch_resource,
    watch_store,
)
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

        obs.start_sampler(until=horizon)
        sim.run(until=horizon)
        report = obs.report(window_start, window_end)
        obs.write_chrome_trace("trace.json")
    """

    def __init__(self, sim: "Simulation",
                 sample_interval: float = 0.05) -> None:
        self.sim = sim
        self.tracer = Tracer(sim)
        self.monitors: dict[str, ResourceMonitor] = {}
        self.sampler = UtilizationSampler(sim, self.monitors,
                                          interval=sample_interval)

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
    # Sampling lifecycle
    # ------------------------------------------------------------------

    def start_sampler(self, until: float | None = None) -> None:
        """Start periodic checkpointing (bounded by ``until`` if given)."""
        self.sampler.start(until)

    def finish(self) -> None:
        """Take one final checkpoint so integrals cover the full run."""
        self.sampler.sample()

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

    def to_chrome_trace(self,
                        counters: bool = True) -> dict[str, typing.Any]:
        """The full run as Chrome ``trace_event`` JSON (spans + counters)."""
        extra = self.counter_events() if counters else None
        return self.tracer.to_chrome_trace(extra_events=extra)

    def write_chrome_trace(self, path: str, counters: bool = True) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(counters=counters), handle)
