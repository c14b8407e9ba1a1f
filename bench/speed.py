"""Host-speed normalization of wall-clock time.

Shared hosts change speed by up to 1.5x for seconds at a time (other
tenants, frequency changes), which swamps a 10% regression in raw wall
time.  :class:`SpeedProbe` runs a fixed reference workload every
:data:`PROBE_INTERVAL_S` seconds from a ``SIGALRM`` handler while the
simulation runs, and :meth:`SpeedProbe.normalize` rescales each slice of
the run by how long the probe took around it: the result is the run's
duration on a host where the probe takes :data:`NOMINAL_PROBE_NS`.

The probe is a small discrete-event loop of its own (heap of timed
entries, generator resumption, dict updates), so it slows down with the
same kinds of contention as the simulator, but it shares no code with
``src/`` and so never speeds up when the simulator does.  The probe's own
time is excluded from the result.  The probe runs with the garbage
collector paused: a collection that the simulator's allocations made due
is left for the simulator's own code, so it counts in the result.

The module imports only small standard-library modules, so a fresh
interpreter can load it before timing an import of the simulator.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import time
import types

#: Probe duration that defines one reference second per host second.
NOMINAL_PROBE_NS = 200_000
#: Host seconds between probes of :class:`SpeedProbe`.
PROBE_INTERVAL_S = 0.01
#: Probes whose median :func:`host_speed` reports (odd).
SPEED_SAMPLES = 21


@contextlib.contextmanager
def _collector_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _worker(state: dict[int, int]):
    count = 0
    while True:
        key = yield count
        state[key % 97] = state.get(key % 97, 0) + 1
        count += 1


def reference_work() -> int:
    """The fixed probe workload; returns a checksum so it cannot be skipped."""
    state: dict[int, int] = {}
    workers = [_worker(state) for _ in range(16)]
    for worker in workers:
        next(worker)
    heap: list[tuple[float, int, tuple]] = []
    total = 0
    for seq in range(90):
        resume = workers[seq % 16].send
        heapq.heappush(heap, (seq * 0.37 % 5.0, seq, (resume, [seq, str(seq)])))
        if len(heap) > 32:
            _when, _seq, (call, payload) = heapq.heappop(heap)
            total += call(payload[0])
    return total


def host_speed() -> float:
    """Nominal probe time over the current one (median of
    :data:`SPEED_SAMPLES` probes).

    Multiplying a short host-time measurement taken right after by this
    factor rescales it to nominal host speed, for sections too short to
    be sampled by :class:`SpeedProbe`.
    """
    samples = []
    with _collector_paused():
        for _ in range(SPEED_SAMPLES):
            start = time.perf_counter_ns()
            reference_work()
            samples.append(time.perf_counter_ns() - start)
    return NOMINAL_PROBE_NS / sorted(samples)[SPEED_SAMPLES // 2]


class SpeedProbe:
    """Samples host speed during a timed section (main thread only)."""

    def __init__(self) -> None:
        #: (start ns, duration ns) of every probe, in order.
        self.probes: list[tuple[int, int]] = []
        self._previous: object = None

    def __enter__(self) -> "SpeedProbe":
        del self.probes[:]
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, _signum: int, _frame: types.FrameType | None) -> None:
        with _collector_paused():
            start = time.perf_counter_ns()
            reference_work()
            self.probes.append((start, time.perf_counter_ns() - start))

    def normalize(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds of the section ``[start_ns, end_ns)``.

        Each slice between probes is scaled by the duration of the probe
        that ends it; the tail after the last probe uses the last probe.
        """
        if not self.probes:
            return (end_ns - start_ns) / 1e9
        reference = 0.0
        resume = start_ns
        for probe_start, duration in self.probes:
            reference += (probe_start - resume) * NOMINAL_PROBE_NS / duration
            resume = probe_start + duration
        reference += ((end_ns - resume) * NOMINAL_PROBE_NS
                      / self.probes[-1][1])
        return reference / 1e9

    @property
    def probe_seconds(self) -> float:
        """Host seconds spent in probes (excluded from :meth:`normalize`)."""
        return sum(duration for _start, duration in self.probes) / 1e9
