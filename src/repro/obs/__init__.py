"""Simulation-wide observability: span tracing, resource monitors,
and automated bottleneck attribution.

The subsystem's cooperating parts:

- :mod:`repro.obs.tracer` — hierarchical span tracing on the simulated
  clock, exportable as Chrome/Perfetto ``trace_event`` JSON;
- :mod:`repro.obs.sampler` — named resource monitors recording
  time-weighted utilization, queue depth, and wait-time distributions,
  checkpointed at every slice boundary of
  :meth:`Observability.run <repro.obs.observe.Observability.run>`;
- :mod:`repro.obs.report` — :func:`bottleneck_report`, one record per
  monitored resource (utilization, queue depth, wait/service
  distributions, a Little's-law consistency check), ranked by
  utilization to attribute the saturated phase directly from
  measurements (the paper's §V analysis as a feature);
- :mod:`repro.obs.critical_path` — per-transaction causal critical-path
  extraction and aggregated per-phase latency attribution;
- :mod:`repro.obs.regression` — the perf-regression gate behind
  ``repro obs-diff``.

Tracing is opt-in and default-off: ``NetworkContext.tracer`` is the no-op
:data:`NULL_TRACER` unless an :class:`Observability` bundle installs a
real one, so unobserved benchmark runs behave identically.  Observed runs
pop the same events too: their checkpoints are taken between bounded
``Simulation.run`` slices, not by a process on the schedule.
"""

from repro.obs.critical_path import (
    CriticalPathSummary,
    PathSegment,
    TxCriticalPath,
    extract_critical_paths,
    summarize_critical_paths,
    tx_timeline,
)
from repro.obs.observe import Observability
from repro.obs.regression import (
    DiffResult,
    MetricDelta,
    compare_measurements,
    diff_files,
)
from repro.obs.report import (
    SATURATION_THRESHOLD,
    BottleneckReport,
    ResourceQueueStats,
    SpanStats,
    bottleneck_report,
    resource_stats,
    span_statistics,
)
from repro.obs.sampler import (
    Checkpoint,
    ResourceMonitor,
    watch_resource,
    watch_store,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "SATURATION_THRESHOLD",
    "BottleneckReport",
    "Checkpoint",
    "CriticalPathSummary",
    "DiffResult",
    "MetricDelta",
    "NullTracer",
    "Observability",
    "PathSegment",
    "ResourceMonitor",
    "ResourceQueueStats",
    "Span",
    "SpanStats",
    "Tracer",
    "TxCriticalPath",
    "bottleneck_report",
    "compare_measurements",
    "diff_files",
    "extract_critical_paths",
    "resource_stats",
    "span_statistics",
    "summarize_critical_paths",
    "tx_timeline",
    "watch_resource",
    "watch_store",
]
