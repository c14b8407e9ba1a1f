"""Check from a run's pop stream that every pop was the binary heap's pop.

A binary heap of ``(time, seq)`` keys pops the smallest pending key each
time.  Given every pop of a run (in order) and the kernel's state after
it, :func:`assert_heap_order` checks exactly that property:

1. popped keys strictly increase;
2. popped seqs plus still-pending seqs are ``range(sim._seq)`` with no
   repeats (every push takes one seq, so nothing was lost or duplicated);
3. every pending entry sorts after the last pop.

A pop that skipped a smaller pending entry would either see that entry
pop later, breaking (1), or leave it pending, breaking (3).
"""

from __future__ import annotations

import typing


class PopLog(list):
    """A ``Simulation.set_trace`` hook that keeps each pop's ``(time, seq)``."""

    def record(self, when: float, seq: int, event: typing.Any) -> None:
        self.append((when, seq))


def assert_heap_order(sim: typing.Any, records: typing.Sequence) -> None:
    """``records``: every pop of ``sim`` so far, as ``(time, seq, ...)``."""
    popped = [(record[0], record[1]) for record in records]
    for earlier, later in zip(popped, popped[1:]):
        assert later > earlier, f"pop {later} after {earlier}"
    cal = sim._cal
    pending = [entry[:2] for entry in (*sim._fifo, *cal.run[cal.run_idx:],
                                       *cal.far)]
    seqs = sorted(seq for _, seq in popped + pending)
    assert seqs == list(range(sim._seq)), "a seq was skipped or repeated"
    if popped and pending:
        assert min(pending) > popped[-1], (
            f"pending {min(pending)} sorts before the last pop {popped[-1]}")
