"""The per-resource report: bottleneck attribution plus queueing checks.

The paper locates Fabric's bottleneck by measuring each phase separately
(§V): the validate phase saturates first.  :func:`bottleneck_report` makes
the same attribution directly from instrumentation — it builds one
:class:`ResourceQueueStats` record per monitored resource, ranks them by
utilization, flags the phase owning the most saturated server pool, and
reports p50/p95/p99 durations per span type from streaming histograms, so
"which component is the bottleneck and by how much" is a first-class
output rather than something inferred from throughput curves.

Every record also carries a **Little's-law consistency check**.  The
monitors keep *two independent* measurements of the same quantity.
Time-average occupancy::

    L = (busy_integral + queue_integral) / T      (area method)

must equal arrival rate times mean sojourn (Little's law)::

    lambda * W = (sum(waits) + sum(services)) / T  (per-request method)

because both numerators are the total request-seconds spent in the
system.  They are computed from different code paths (kernel state
callbacks vs per-request grant/release timestamps), so agreement within
tolerance is a strong internal-consistency validator for the whole
instrumentation layer.  Known, reported, sources of residual
disagreement: requests still in the system at the end of the run (their
occupancy is in the integrals but their sojourn has not been recorded
yet) and queued requests cancelled before service (timeout races;
counted in ``cancels``).

Utilization and queue depth cover the requested window — the measurement
window, when a network builds the report.  The per-request accumulations
(counts, throughput, wait and service distributions) and therefore the
Little's-law check cover the monitor's whole lifetime, the only interval
both sides of the check are recorded over.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.stats import StreamingHistogram
from repro.obs.sampler import ResourceMonitor
from repro.obs.tracer import Tracer

#: A resource above this utilization counts as saturated.
SATURATION_THRESHOLD = 0.8

#: Default relative tolerance for the Little's-law check.
LITTLE_TOLERANCE = 0.05

#: Absolute occupancy floor below which the check passes trivially
#: (idle resources: both sides indistinguishable from zero).
_OCCUPANCY_FLOOR = 1e-9


@dataclasses.dataclass
class ResourceQueueStats:
    """One monitored resource: windowed load, lifetime queueing."""

    name: str
    kind: str                 # "queue" for stores; cpu/pool/disk/... else
    phase: str
    capacity: int
    lifetime: float           # seconds observed since the monitor attached
    utilization: float        # over the requested window
    mean_queue: float         # over the requested window
    max_queue: int
    arrivals: int             # slots granted
    completions: int          # slots released (service recorded)
    cancels: int              # queued requests withdrawn before grant
    mean_wait: float
    p50_wait: float
    p95_wait: float
    p99_wait: float
    mean_service: float
    p95_service: float
    occupancy_l: float        # L: time-average requests in system (area)
    lambda_w: float           # lambda*W: per-request accounting
    little_error: float | None  # relative |L - lambda*W|; None: no check
    little_ok: bool

    @property
    def saturated(self) -> bool:
        return self.utilization >= SATURATION_THRESHOLD

    @property
    def throughput(self) -> float:
        return self.completions / self.lifetime if self.lifetime > 0 else 0.0

    def as_dict(self) -> dict[str, typing.Any]:
        data = dataclasses.asdict(self)
        data["saturated"] = self.saturated
        data["throughput"] = self.throughput
        return data


@dataclasses.dataclass
class SpanStats:
    """Duration statistics for one span type."""

    name: str
    category: str
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    wait_mean: float

    def as_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class BottleneckReport:
    """The attribution: ranked resources, span latencies, the verdict."""

    window: tuple[float, float] | None
    resources: list[ResourceQueueStats]     # ranked, most utilized first
    spans: list[SpanStats]                  # alphabetical by span name
    bottleneck: ResourceQueueStats | None   # top-ranked resource, if any
    saturated_phase: str                    # phase of the bottleneck or ""

    def resource(self, name: str) -> ResourceQueueStats:
        for stats in self.resources:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def span_stats(self, name: str) -> SpanStats:
        for stats in self.spans:
            if stats.name == name:
                return stats
        raise KeyError(name)

    @property
    def violations(self) -> list[ResourceQueueStats]:
        return [stats for stats in self.resources if not stats.little_ok]

    @property
    def little_ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "window": list(self.window) if self.window else None,
            "saturated_phase": self.saturated_phase,
            "bottleneck": (self.bottleneck.as_dict()
                           if self.bottleneck else None),
            "tolerance": LITTLE_TOLERANCE,
            "little_ok": self.little_ok,
            "resources": {stats.name: stats.as_dict()
                          for stats in sorted(self.resources,
                                              key=lambda s: s.name)},
            "spans": [stats.as_dict() for stats in self.spans],
        }

    def render(self, top: int = 12) -> str:
        """Human-readable report, most utilized resources first."""
        if self.window:
            lines = [f"Resource report over simulated "
                     f"[{self.window[0]:.2f}s, {self.window[1]:.2f}s)",
                     "(util and avg q cover this window; thr/s, waits, "
                     "L and lam*W the whole run)"]
        else:
            lines = ["Resource report (whole run)"]
        if self.bottleneck is not None:
            verdict = ("SATURATED" if self.bottleneck.saturated
                       else "not saturated")
            lines.append(
                f"bottleneck: {self.bottleneck.name} "
                f"(phase={self.bottleneck.phase or '-'}, "
                f"utilization={self.bottleneck.utilization:.3f}, {verdict})")
            if self.saturated_phase:
                lines.append(f"saturated phase: {self.saturated_phase}")
        lines.append("")
        lines.append(f"{'resource':<36} {'phase':<9} {'util':>6} "
                     f"{'avg q':>7} {'max q':>5} {'wait p95':>9} "
                     f"{'thr/s':>8} {'L':>8} {'lam*W':>8} {'Little':>7}")
        for stats in self.resources[:top]:
            if stats.little_error is None:
                check = "-"
            else:
                check = ("ok" if stats.little_ok
                         else f"{stats.little_error * 100:.1f}%!")
            lines.append(
                f"{stats.name:<36} {stats.phase or '-':<9} "
                f"{stats.utilization:>6.3f} {stats.mean_queue:>7.2f} "
                f"{stats.max_queue:>5d} {stats.p95_wait:>8.4f}s "
                f"{stats.throughput:>8.1f} {stats.occupancy_l:>8.4f} "
                f"{stats.lambda_w:>8.4f} {check:>7}")
        hidden = len(self.resources) - len(self.resources[:top])
        if hidden > 0:
            lines.append(f"... {hidden} more resources (all shown in JSON)")
        if self.violations:
            names = ", ".join(stats.name for stats in self.violations)
            lines.append(f"LITTLE'S-LAW VIOLATIONS: {names}")
        else:
            lines.append("Little's-law check: all monitored resources "
                         f"consistent within {LITTLE_TOLERANCE * 100:.0f}%")
        if self.spans:
            lines.append("")
            lines.append(f"{'span':<24} {'count':>7} {'mean':>9} "
                         f"{'p50':>9} {'p95':>9} {'p99':>9}")
            for span in self.spans:
                lines.append(
                    f"{span.name:<24} {span.count:>7d} "
                    f"{span.mean:>8.4f}s {span.p50:>8.4f}s "
                    f"{span.p95:>8.4f}s {span.p99:>8.4f}s")
        return "\n".join(lines)


def resource_stats(monitor: ResourceMonitor,
                   start: float | None = None,
                   end: float | None = None,
                   tolerance: float = LITTLE_TOLERANCE
                   ) -> ResourceQueueStats:
    """One monitor's record: load over ``[start, end)``, the rest lifetime.

    Utilization and mean queue depth cover the window (default: the
    monitor's lifetime); counts, wait/service distributions, and the
    Little's-law check cover the lifetime.  Store monitors (kind
    ``queue``) have no grant/release telemetry and skip the check.
    """
    lifetime, busy, queue, _t0 = monitor._window(None, None)
    waits = monitor.waits
    services = monitor.services
    occupancy = (busy + queue) / lifetime if lifetime > 0 else 0.0
    lambda_w = ((waits.total + services.total) / lifetime
                if lifetime > 0 else 0.0)

    little_error: float | None = None
    little_ok = True
    if monitor.kind != "queue" and lifetime > 0:
        larger = max(occupancy, lambda_w)
        little_error = (0.0 if larger <= _OCCUPANCY_FLOOR
                        else abs(occupancy - lambda_w) / larger)
        little_ok = little_error <= tolerance

    return ResourceQueueStats(
        name=monitor.name,
        kind=monitor.kind,
        phase=monitor.phase,
        capacity=monitor.capacity,
        lifetime=lifetime,
        utilization=monitor.utilization(start, end),
        mean_queue=monitor.mean_queue(start, end),
        max_queue=monitor.max_queue,
        arrivals=monitor.grants,
        completions=services.count,
        cancels=monitor.cancels,
        mean_wait=waits.mean,
        p50_wait=waits.percentile(50),
        p95_wait=waits.percentile(95),
        p99_wait=waits.percentile(99),
        mean_service=services.mean,
        p95_service=services.percentile(95),
        occupancy_l=occupancy,
        lambda_w=lambda_w,
        little_error=little_error,
        little_ok=little_ok,
    )


def span_statistics(tracer: Tracer, start: float | None = None,
                    end: float | None = None) -> list[SpanStats]:
    """Per-span-type duration stats over spans *starting* in the window."""
    histograms: dict[str, StreamingHistogram] = {}
    wait_totals: dict[str, float] = {}
    categories: dict[str, str] = {}
    maxima: dict[str, float] = {}
    for span in tracer.spans:
        if span.start is None or span.end is None:
            continue
        if start is not None and span.start < start:
            continue
        if end is not None and span.start >= end:
            continue
        histogram = histograms.get(span.name)
        if histogram is None:
            histogram = histograms[span.name] = StreamingHistogram()
            wait_totals[span.name] = 0.0
            categories[span.name] = span.category
            maxima[span.name] = 0.0
        duration = span.end - span.start
        histogram.add(duration)
        maxima[span.name] = max(maxima[span.name], duration)
        if span.wait is not None:
            wait_totals[span.name] += span.wait
    stats = []
    for name in sorted(histograms):
        histogram = histograms[name]
        stats.append(SpanStats(
            name=name,
            category=categories[name],
            count=histogram.count,
            mean=histogram.mean,
            p50=histogram.percentile(50),
            p95=histogram.percentile(95),
            p99=histogram.percentile(99),
            max=maxima[name],
            wait_mean=(wait_totals[name] / histogram.count
                       if histogram.count else 0.0),
        ))
    return stats


def bottleneck_report(tracer: Tracer,
                      monitors: typing.Mapping[str, ResourceMonitor],
                      start: float | None = None,
                      end: float | None = None) -> BottleneckReport:
    """Rank every monitored resource and attribute the bottleneck.

    ``start``/``end`` bound utilization, queue depth, and span statistics
    to a measurement window (default: each monitor's lifetime).  The
    bottleneck is the highest-utilization server pool; the saturated
    phase is that resource's phase when its utilization passes
    :data:`SATURATION_THRESHOLD`.
    """
    resources = [resource_stats(monitor, start, end)
                 for monitor in monitors.values()]
    # Server pools rank by utilization; pure queues sort below them by
    # mean depth (they cannot saturate, only reflect upstream pressure).
    # Both are rounded to 1e-9 so that equal loads summed in a different
    # order tie, and ties go to the first name.
    resources.sort(key=lambda s: (-round(s.utilization, 9),
                                  -round(s.mean_queue, 9), s.name))
    pools = [stats for stats in resources if stats.capacity > 0]
    bottleneck = pools[0] if pools else (resources[0] if resources else None)
    saturated_phase = ""
    if bottleneck is not None and bottleneck.saturated:
        saturated_phase = bottleneck.phase or bottleneck.kind
    window = None
    if start is not None and end is not None:
        window = (start, end)
    return BottleneckReport(
        window=window,
        resources=resources,
        spans=span_statistics(tracer, start, end),
        bottleneck=bottleneck,
        saturated_phase=saturated_phase,
    )
