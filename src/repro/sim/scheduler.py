"""Array-backed event scheduling: the calendar/sorted two-tier timer queue.

The kernel's original scheduler was a single binary heap of
``(time, seq, event)`` tuples.  Profiling reference runs shows the pop
stream splits into three sharply different populations:

- **due-now events** (~half of all pushes): ``succeed()``/``fail()``,
  resource grants, store handoffs, and process-init events, all scheduled
  at the *current* simulation time;
- **short-horizon timeouts** (~45%): CPU service slices, NIC
  serialization, link latencies, endorsement/ordering/Batch timeouts —
  almost all within a few milliseconds of *now*;
- **far-future events** (a few percent): end-of-run horizons, client
  endorsement timeouts, election timers.

This module exploits that shape.  Due-now events go to a plain FIFO ring
(:attr:`Simulation._fifo` — a deque): because the clock never moves
backwards and the sequence number rises monotonically, appends arrive
*already sorted* by ``(time, seq)``, so push is O(1) with zero
comparisons and pop is ``popleft``.  Timed events go to the
:class:`CalendarQueue` below: a rotating *current bucket* holds the
sorted run of entries inside the active time window (``bucket_end`` keeps
advancing), and a binary-heap *far tier* holds everything beyond it.
Popping the global minimum is then a single head-to-head comparison
between the FIFO and the current bucket — the far tier never competes
(every far entry is provably later than every bucket entry).

Design notes (measured on CPython 3.11, reference perfbench scenarios):

- Entries stay ``(time, seq, event)`` tuples rather than literal parallel
  ``array('d')``/``array('q')`` columns: the tuple *is* the comparison
  key, so C-level ``list.sort``/``bisect``/``heapq`` operate on it
  directly; splitting the columns forces the comparisons back into
  Python, which benchmarked ~40% slower.  The "array-backed" win here is
  the flat, index-consumed current bucket (no per-pop sift) plus the
  comparison-free FIFO ring.
- The bucket width trades insort cost in the current bucket against
  migration traffic from the far tier; 5 ms keeps reference-run buckets
  at a few hundred entries, where ``bisect``'s memmove is cheaper than a
  heap sift.

Pop order is the binary heap's — the same ``(time, seq)`` total order
and sequence-number assignment — which the golden digests pin end to end
and ``tests/sim/heap_order.py`` checks from the pop stream of every run
it is attached to.
"""

from __future__ import annotations

import typing
from bisect import insort
from heapq import heappop, heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.events import Event

#: One scheduled occurrence: the tuple is its own comparison key.
Entry = typing.Tuple[float, int, "Event"]

#: Current-bucket width in simulated seconds (see module docs).
DEFAULT_BUCKET_WIDTH = 0.005


class CalendarQueue:
    """The timed tiers: a sorted current bucket plus a far-future heap.

    Invariants (enforced by construction, checked by the property suite):

    - ``run`` (its consumed prefix included) is sorted ascending by
      ``(time, seq)`` and every entry's time is ``< bucket_end``;
    - every entry in ``far`` has time ``>= bucket_end`` *at all times*
      (``bucket_end`` only grows, and pushes route on it);
    - the consumed prefix ``run[:run_idx]`` holds only entries whose time
      is ``<= now``, so a fresh push (time ``> now``) can never belong
      inside it — ``insort`` over the whole list is therefore safe.

    :meth:`Simulation.run <repro.sim.core.Simulation.run>` is the only
    kernel code that pops: it manipulates ``run``/``run_idx`` directly (as
    hoisted locals, synced back on exit) and calls :meth:`advance`.  The
    :meth:`push`/:meth:`head`/:meth:`pop` methods are the same operations
    for standalone use, such as the primitive microbenchmarks.
    """

    __slots__ = ("run", "run_idx", "bucket_end", "far")

    def __init__(self) -> None:
        #: Sorted entries of the current bucket; consumed by index.
        self.run: list[Entry] = []
        #: First unconsumed position in :attr:`run`.
        self.run_idx = 0
        #: Exclusive upper time bound of the current bucket.
        self.bucket_end = DEFAULT_BUCKET_WIDTH
        #: Min-heap of entries at or beyond :attr:`bucket_end`.
        self.far: list[Entry] = []

    def push(self, entry: Entry) -> None:
        """File ``entry`` into the bucket or the far tier by its time."""
        if entry[0] < self.bucket_end:
            insort(self.run, entry)
        else:
            heappush(self.far, entry)

    def head(self) -> Entry | None:
        """The earliest timed entry, or ``None``; advances buckets lazily."""
        if self.run_idx >= len(self.run):
            if not self.far:
                return None
            self.advance()
        return self.run[self.run_idx]

    def pop(self) -> Entry:
        """Remove and return the earliest timed entry."""
        entry = self.head()
        if entry is None:
            raise IndexError("pop from an empty CalendarQueue")
        self.run_idx += 1
        return entry

    def advance(self) -> None:
        """Rotate to the bucket anchored at the earliest far entry.

        Precondition: the current bucket is exhausted and the far tier is
        non-empty.  Entries within one bucket width of the earliest far
        entry migrate into a fresh run — already sorted, because
        ``heappop`` yields them in ascending order; ``bucket_end`` jumps
        directly there (empty buckets are never visited).
        """
        far = self.far
        bucket_end = far[0][0] + DEFAULT_BUCKET_WIDTH
        run: list[Entry] = []
        append = run.append
        while far and far[0][0] < bucket_end:
            append(heappop(far))
        self.run = run
        self.run_idx = 0
        self.bucket_end = bucket_end
