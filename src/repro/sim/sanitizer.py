"""Runtime determinism sanitizer: trace digests, double-run diffing, ties.

The static side of the determinism contract lives in
:mod:`repro.analysis_tools.simlint`; this module is the *runtime* side:

- :class:`TraceDigest` hashes every ``(time, seq, event-type, owner)`` pop
  of the simulation loop into one SHA-256 digest.  Two same-seed runs of a
  deterministic model produce byte-identical digests; any divergence —
  schedule reordering, an extra event, a perturbed RNG stream — changes it.
- :func:`run_twice_and_diff` runs a workload factory twice with identical
  inputs and, on divergence, reports the *first* event where the two
  schedules disagree (the closest thing a simulator has to a race report).
- The tie auditor inside :class:`TraceDigest` counts same-timestamp pops
  that resume *different* processes: those orderings are decided purely by
  push order (the ``seq`` tie-break), i.e. they are the places where an
  innocent refactor can legally reorder the schedule.  High tie counts mean
  the model leans hard on insertion order; the examples list names the
  processes involved.

Attach with :meth:`repro.sim.core.Simulation.set_trace`; overhead when
detached is one ``is None`` test per event.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

# Runtime import is safe (core does not import sanitizer at runtime) and
# keeps the per-event hot path free of repeated module lookups.
from repro.sim.core import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulation
    from repro.sim.events import Event


class TraceRecord(typing.NamedTuple):
    """One popped event, as fed into the digest."""

    time: float
    seq: int
    event_type: str
    owner: str

    def format(self) -> str:
        return (f"t={self.time:.9f} seq={self.seq} "
                f"{self.event_type} -> {self.owner}")


class TieRecord(typing.NamedTuple):
    """Two consecutive same-time pops owned by different processes."""

    time: float
    first_owner: str
    second_owner: str


def event_owner(event: "Event") -> str:
    """The label of the process(es) a popped event belongs to or resumes.

    A Process completion is labelled by its own generator name, any other
    event by the names of the processes its callbacks resume, else "-".
    A completion pop so shares its label with the resumes that drove it,
    and the tie auditor only counts ties between distinct processes.  No
    memory addresses: labels must match across runs.
    """
    if isinstance(event, Process):
        return event.name
    callbacks = event.callbacks
    if not callbacks:
        return "-"
    names: list[str] | None = None
    for callback in callbacks:
        target = getattr(callback, "__self__", None)
        if isinstance(target, Process):
            if names is None:
                names = [target.name]
            else:
                names.append(target.name)
    if names is None:
        return "-"
    return names[0] if len(names) == 1 else ",".join(names)


class TraceDigest:
    """Streaming SHA-256 over the event schedule, plus a tie audit.

    With ``keep_records=True`` (the default) every record is also kept in
    memory so :func:`diff_records` can pinpoint the first divergence; for
    very long runs where only the digest matters, pass ``False``.
    """

    #: Cap on stored tie examples (the count is always exact).
    MAX_TIE_EXAMPLES = 32

    def __init__(self, sim: "Simulation", keep_records: bool = True) -> None:
        self.sim = sim
        self.keep_records = keep_records
        self.records: list[TraceRecord] = []
        self.events_recorded = 0
        self.tie_count = 0
        self.tie_examples: list[TieRecord] = []
        self._hash = hashlib.sha256()
        # (time, owner) of the previous pop — a bare tuple, not a
        # TraceRecord, so digest-only runs allocate nothing per event
        # beyond the hashed line itself.
        self._previous: tuple[float, str] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> "TraceDigest":
        """Install this digest as the simulation's trace hook."""
        self.sim.set_trace(self)
        return self

    def detach(self) -> None:
        if self.sim._trace is self:
            self.sim.set_trace(None)

    # ------------------------------------------------------------------
    # Recording (called from Simulation.run)
    # ------------------------------------------------------------------

    def record(self, when: float, seq: int, event: "Event") -> None:
        owner = event_owner(event)
        event_type = type(event).__name__
        # float.hex() is exact: two times digest equal iff bit-identical.
        self._hash.update(
            f"{when.hex()}|{seq}|{event_type}|{owner}\n".encode("utf-8"))
        self.events_recorded += 1
        if self.keep_records:
            self.records.append(TraceRecord(
                time=when, seq=seq, event_type=event_type, owner=owner))
        previous = self._previous
        if (previous is not None and previous[0] == when
                and previous[1] != owner
                and owner != "-" and previous[1] != "-"):
            self.tie_count += 1
            if len(self.tie_examples) < self.MAX_TIE_EXAMPLES:
                self.tie_examples.append(TieRecord(
                    time=when, first_owner=previous[1],
                    second_owner=owner))
        self._previous = (when, owner)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def hexdigest(self) -> str:
        """Digest over everything recorded so far."""
        return self._hash.hexdigest()


@dataclasses.dataclass
class Divergence:
    """The first event at which two same-seed schedules disagree."""

    index: int
    left: TraceRecord | None
    right: TraceRecord | None

    def format(self) -> str:
        left = self.left.format() if self.left else "<schedule ended>"
        right = self.right.format() if self.right else "<schedule ended>"
        return (f"first divergence at event #{self.index}:\n"
                f"  run A: {left}\n"
                f"  run B: {right}")


@dataclasses.dataclass
class DeterminismReport:
    """Outcome of a same-input double run."""

    identical: bool
    digest_a: str
    digest_b: str
    events_a: int
    events_b: int
    tie_count: int
    tie_examples: list[TieRecord]
    divergence: Divergence | None

    def render(self) -> str:
        lines = []
        if self.identical:
            lines.append(
                f"DETERMINISTIC: {self.events_a} events, "
                f"digest {self.digest_a[:16]}… identical across runs")
        else:
            lines.append(
                f"NON-DETERMINISTIC: digests differ "
                f"({self.digest_a[:16]}… vs {self.digest_b[:16]}…, "
                f"{self.events_a} vs {self.events_b} events)")
            if self.divergence is not None:
                lines.append(self.divergence.format())
        lines.append(
            f"tie audit: {self.tie_count} same-timestamp adjacent pops "
            f"across distinct processes (insertion-order dependent)")
        for tie in self.tie_examples[:5]:
            lines.append(f"  tie at t={tie.time:.9f}: "
                         f"{tie.first_owner} | {tie.second_owner}")
        return "\n".join(lines)


def diff_records(left: list[TraceRecord],
                 right: list[TraceRecord]) -> Divergence | None:
    """First index at which two schedules disagree, or ``None``."""
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(index=index, left=a, right=b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        return Divergence(
            index=index,
            left=left[index] if index < len(left) else None,
            right=right[index] if index < len(right) else None)
    return None


def run_twice_and_diff(
        run: typing.Callable[[], TraceDigest],
        keep_records: bool = True) -> DeterminismReport:
    """Run ``run`` twice and compare the schedules it produces.

    ``run`` must build a *fresh* simulation from identical inputs (same
    seed, same config), execute it with an attached :class:`TraceDigest`,
    and return that digest.  The :func:`digest_run` helper wraps the
    common build-attach-run pattern.
    """
    first = run()
    second = run()
    divergence = None
    identical = first.hexdigest == second.hexdigest
    if not identical and keep_records:
        divergence = diff_records(first.records, second.records)
    return DeterminismReport(
        identical=identical,
        digest_a=first.hexdigest, digest_b=second.hexdigest,
        events_a=first.events_recorded, events_b=second.events_recorded,
        tie_count=first.tie_count,
        tie_examples=list(first.tie_examples),
        divergence=divergence)


def digest_run(sim: "Simulation",
               drive: typing.Callable[[], typing.Any],
               keep_records: bool = True) -> TraceDigest:
    """Attach a digest to ``sim``, call ``drive()``, detach, return it."""
    digest = TraceDigest(sim, keep_records=keep_records).attach()
    try:
        drive()
    finally:
        digest.detach()
    return digest
