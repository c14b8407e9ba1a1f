"""Resource-utilization instrumentation: per-resource monitors.

A :class:`ResourceMonitor` attaches to one named kernel primitive (a
:class:`~repro.sim.resources.Resource` pool or a
:class:`~repro.sim.resources.Store` queue) and accumulates *exact*
time-weighted integrals of busy servers and queue depth, plus a streaming
histogram of per-request queue-wait times.  The kernel calls back into the
monitor on every state change; when no monitor is attached the cost is a
single ``is None`` test, so unobserved runs are unchanged.

Checkpoints carry the running integrals.  The observability bundle takes
one at every boundary of a sliced run (see
:meth:`~repro.obs.observe.Observability.run`), so utilization and mean
queue depth over a ``[start, end)`` window whose edges are slice
boundaries are exact — the basis of windowed bottleneck attribution.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.common.errors import ConfigurationError
from repro.metrics.stats import StreamingHistogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulation
    from repro.sim.resources import Resource, Store


@dataclasses.dataclass
class Checkpoint:
    """One snapshot of a monitor's running integrals."""

    time: float
    busy_integral: float
    queue_integral: float
    busy: int
    queue: int


class ResourceMonitor:
    """Time-weighted usage accounting for one named resource or queue.

    ``capacity`` is the number of servers for a :class:`Resource`; pass 0
    for pure queues (a :class:`Store`), which report depth but no
    utilization.
    """

    def __init__(self, sim: "Simulation", name: str, capacity: int,
                 kind: str = "resource", phase: str = "") -> None:
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.kind = kind
        self.phase = phase
        self.waits = StreamingHistogram()
        #: Per-request service times (grant -> release), fed by the kernel.
        self.services = StreamingHistogram()
        self.grants = 0
        #: Queued requests withdrawn before being granted (timeout races);
        #: their queueing time is in the queue integral but never reaches
        #: the wait histogram — the Little's-law check reports them.
        self.cancels = 0
        #: Span tracer the monitor reports queue waits to (see
        #: :meth:`note_wait`); wired by the observability layer.
        self.tracer: typing.Any = None
        self.max_queue = 0
        self._busy = 0
        self._queue = 0
        self._busy_integral = 0.0
        self._queue_integral = 0.0
        self._last_time = sim.now
        self._attached_at = sim.now
        self.checkpoints: list[Checkpoint] = []
        self._checkpoint_at: dict[float, Checkpoint] = {}

    # ------------------------------------------------------------------
    # Kernel callbacks
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_time
        if elapsed > 0:
            self._busy_integral += self._busy * elapsed
            self._queue_integral += self._queue * elapsed
            self._last_time = now

    def on_state(self, busy: int, queue: int) -> None:
        """Called by the kernel whenever occupancy or queue depth changes."""
        self._advance()
        self._busy = busy
        self._queue = queue
        if queue > self.max_queue:
            self.max_queue = queue

    def on_grant(self, wait: float) -> None:
        """Called when a queued request is granted after ``wait`` seconds."""
        self.grants += 1
        self.waits.add(wait)

    def on_release(self, service: float) -> None:
        """Called when a granted slot is returned after ``service`` secs."""
        self.services.add(service)

    def on_cancel(self) -> None:
        """Called when a queued request is withdrawn before its grant."""
        self.cancels += 1

    def note_wait(self, wait: float) -> None:
        """Report a measured queue wait to the attached tracer (if any).

        The tracer attaches it to the innermost open span of the active
        process, which is the caller that just waited — this is how spans
        get their wait populated automatically on monitored resources.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.attach_wait(wait)

    # ------------------------------------------------------------------
    # Checkpoints and windowed statistics
    # ------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the running integrals at the current simulated time."""
        self._advance()
        point = Checkpoint(time=self.sim.now,
                           busy_integral=self._busy_integral,
                           queue_integral=self._queue_integral,
                           busy=self._busy, queue=self._queue)
        self.checkpoints.append(point)
        self._checkpoint_at[point.time] = point
        return point

    def _integrals_at(self, when: float) -> tuple[float, float]:
        """Busy/queue integrals at ``when``, exactly.

        Known at three kinds of time: the attach time, a checkpoint, and
        the live accounting point (``_last_time``, kept current by
        :meth:`_advance`) or later, where the current state extends.  The
        integrals at any other time were never recorded, so asking for
        one raises :class:`~repro.common.errors.ConfigurationError`.
        """
        if when == self._attached_at:
            return 0.0, 0.0
        point = self._checkpoint_at.get(when)
        if point is not None:
            return point.busy_integral, point.queue_integral
        if when >= self._last_time:
            extra = when - self._last_time
            return (self._busy_integral + self._busy * extra,
                    self._queue_integral + self._queue * extra)
        raise ConfigurationError(
            f"monitor {self.name}: no checkpoint at t={when}; a window "
            f"edge must be the attach time ({self._attached_at}), a slice "
            f"boundary of the run, or the live point ({self._last_time})")

    def _window(self, start: float | None,
                end: float | None) -> tuple[float, float, float, float]:
        """(elapsed, busy integral, queue integral, start) over a window."""
        self._advance()
        t0 = self._attached_at if start is None else start
        t1 = self._last_time if end is None else end
        if t1 <= t0:
            return 0.0, 0.0, 0.0, t0
        busy0, queue0 = self._integrals_at(t0)
        busy1, queue1 = self._integrals_at(t1)
        return t1 - t0, busy1 - busy0, queue1 - queue0, t0

    def utilization(self, start: float | None = None,
                    end: float | None = None) -> float:
        """Fraction of server capacity busy over ``[start, end)``.

        Defaults to the monitor's whole lifetime.  Queues (capacity 0)
        report 0.0.
        """
        elapsed, busy, _queue, _t0 = self._window(start, end)
        if elapsed <= 0 or self.capacity <= 0:
            return 0.0
        return busy / (self.capacity * elapsed)

    def mean_queue(self, start: float | None = None,
                   end: float | None = None) -> float:
        """Time-weighted mean queue depth over ``[start, end)``."""
        elapsed, _busy, queue, _t0 = self._window(start, end)
        if elapsed <= 0:
            return 0.0
        return queue / elapsed

    def busy_series(self) -> list[tuple[float, float]]:
        """(time, mean busy servers) per checkpoint interval, for counters."""
        series: list[tuple[float, float]] = []
        previous: Checkpoint | None = None
        for point in self.checkpoints:
            if previous is not None:
                elapsed = point.time - previous.time
                if elapsed > 0:
                    busy = ((point.busy_integral - previous.busy_integral)
                            / elapsed)
                    series.append((point.time, busy))
            previous = point
        return series

    def __repr__(self) -> str:
        return (f"<ResourceMonitor {self.name} kind={self.kind} "
                f"capacity={self.capacity} util={self.utilization():.3f}>")


def watch_resource(resource: "Resource", name: str | None = None,
                   kind: str = "resource",
                   phase: str = "") -> ResourceMonitor:
    """Attach a monitor to ``resource`` (replacing any existing one)."""
    label = name or resource.name or f"resource@{id(resource):#x}"
    monitor = ResourceMonitor(resource.sim, label, resource.capacity,
                              kind=kind, phase=phase)
    resource.monitor = monitor
    monitor.on_state(resource.count, resource.queue_length)
    return monitor


def watch_store(store: "Store", name: str | None = None,
                phase: str = "") -> ResourceMonitor:
    """Attach a queue-depth monitor to ``store``."""
    label = name or store.name or f"store@{id(store):#x}"
    monitor = ResourceMonitor(store.sim, label, capacity=0, kind="queue",
                              phase=phase)
    store.monitor = monitor
    monitor.on_state(store.waiting_getters, len(store))
    return monitor
