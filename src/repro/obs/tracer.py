"""Hierarchical span tracing on the simulated clock.

A :class:`Tracer` records *spans* — named intervals of simulated time tied
to a node and (optionally) a transaction — plus instantaneous events.
Spans are opened with a context manager::

    with tracer.span("endorse", category="execute", node=peer.name,
                     tx_id=proposal.tx_id) as span:
        ...            # simulated work; `yield` freely inside
        span.set_wait(queue_wait_seconds)

Because the simulation is single-threaded, a ``with`` block around
generator code measures exactly the simulated interval between entering
and leaving the block, even when the process yields in between.  Spans
nest per simulation process (the tracer keeps one open-span stack per
:class:`~repro.sim.core.Process`), so a span opened inside another span of
the same process records it as its parent.  The tracer keeps no block
record: critical-path extraction treats every ordering span as shared by
the transactions in flight (:mod:`repro.obs.critical_path`).

Tracing is opt-in and default-off: every node reaches its tracer through
``context.tracer``, which is the shared :data:`NULL_TRACER` unless an
observability layer installed a real one.  The null tracer allocates
nothing and returns a shared no-op span, so instrumentation costs a single
attribute lookup on the hot path and *zero* simulated time either way.

The recorded trace exports to Chrome ``trace_event`` JSON (the format read
by ``chrome://tracing`` and https://ui.perfetto.dev), with one process row
per simulated node and overlapping spans spread across per-node lanes.
"""

from __future__ import annotations

import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import types

    from repro.sim.core import Simulation


class Span:
    """One named interval of simulated time."""

    __slots__ = ("_tracer", "name", "category", "node", "tx_id", "start",
                 "end", "wait", "args", "parent")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 node: str, tx_id: str,
                 args: dict[str, typing.Any] | None) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.node = node
        self.tx_id = tx_id
        self.start: float | None = None
        self.end: float | None = None
        #: Seconds of the span spent waiting in a queue (set by the caller).
        self.wait: float | None = None
        self.args = args
        self.parent: "Span | None" = None

    @property
    def duration(self) -> float | None:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def annotate(self, **kwargs: typing.Any) -> "Span":
        """Attach key/value details, shown in the trace viewer."""
        if self.args is None:
            self.args = {}
        self.args.update(kwargs)
        return self

    def set_wait(self, seconds: float) -> "Span":
        """Record how long this span waited in a queue before service."""
        self.wait = seconds
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: "types.TracebackType | None") -> bool:
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:
        return (f"<Span {self.name} node={self.node} start={self.start} "
                f"end={self.end}>")


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    start = None
    end = None
    wait = None
    duration = None

    def annotate(self, **kwargs: typing.Any) -> "_NullSpan":
        return self

    def set_wait(self, seconds: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: "types.TracebackType | None") -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """Default-off tracer: every operation is a no-op.

    Truth-testing is False so call sites can guard expensive argument
    construction with ``if tracer: ...``.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def span(self, name: str, category: str = "", node: str = "",
             tx_id: str = "", **args: typing.Any) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, category: str = "", node: str = "",
                **args: typing.Any) -> None:
        return None

    def attach_wait(self, seconds: float) -> None:
        return None

    def record_complete(self, name: str, category: str = "", node: str = "",
                        tx_id: str = "", start: float = 0.0, end: float = 0.0,
                        **args: typing.Any) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans and instants against the simulated clock."""

    enabled = True

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.spans: list[Span] = []
        self.instants: list[
            tuple[float, str, str, str, dict[str, typing.Any] | None]] = []
        # Open-span stack per simulation process (id -> stack); keyed by id
        # because Process objects are not hashable by value and stacks must
        # not keep dead processes alive once their spans close.
        self._stacks: dict[int, list[Span]] = {}

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, category: str = "", node: str = "",
             tx_id: str = "", **args: typing.Any) -> Span:
        """Create a span; record it by using it as a context manager."""
        return Span(self, name, category, node, tx_id, args or None)

    def instant(self, name: str, category: str = "", node: str = "",
                **args: typing.Any) -> None:
        """Record an instantaneous event at the current simulated time."""
        self.instants.append(
            (self.sim.now, name, category, node, args or None))

    def attach_wait(self, seconds: float) -> None:
        """Add queue-wait seconds to the active process's innermost span.

        Called by :meth:`~repro.obs.sampler.ResourceMonitor.note_wait` when
        a monitored resource grants a contended slot: the waiter resumes,
        and whatever span it has open absorbs the measured wait.  Waits
        accumulate, so a span covering several acquisitions reports their
        sum.  No open span -> the wait is only in the monitor's histogram.
        """
        stack = self._stacks.get(self._stack_key())
        if stack:
            span = stack[-1]
            span.wait = (span.wait or 0.0) + seconds

    def record_complete(self, name: str, category: str = "", node: str = "",
                        tx_id: str = "", start: float = 0.0, end: float = 0.0,
                        **args: typing.Any) -> None:
        """Record an already-finished span without touching the stacks.

        For intervals reconstructed after the fact (fault windows, external
        timelines) where no process held the span open.
        """
        span = Span(self, name, category, node, tx_id, args or None)
        span.start = start
        span.end = end
        self.spans.append(span)

    def _stack_key(self) -> int:
        process = self.sim.active_process
        return id(process) if process is not None else 0

    def _open(self, span: Span) -> None:
        span.start = self.sim.now
        stack = self._stacks.setdefault(self._stack_key(), [])
        if stack:
            span.parent = stack[-1]
        stack.append(span)
        self.spans.append(span)

    def _close(self, span: Span) -> None:
        span.end = self.sim.now
        key = self._stack_key()
        stack = self._stacks.get(key)
        if stack and span in stack:
            # Pop through (tolerates a child left open by an interrupt).
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if not stack and key in self._stacks:
            del self._stacks[key]

    # ------------------------------------------------------------------
    # Export: Chrome trace_event JSON
    # ------------------------------------------------------------------

    def to_chrome_trace(
            self, extra_events: list[dict[str, typing.Any]] | None = None,
    ) -> dict[str, typing.Any]:
        """The trace as a Chrome ``trace_event`` object.

        One *process* per simulated node; concurrent spans of one node are
        spread greedily over numbered lanes (threads) so nothing overlaps
        in the viewer.  Times are microseconds of simulated time.
        """
        events: list[dict[str, typing.Any]] = []
        pids: dict[str, int] = {}

        def pid_for(node: str) -> int:
            label = node or "(global)"
            if label not in pids:
                pids[label] = len(pids) + 1
            return pids[label]

        # Spans, grouped per node for lane assignment.
        by_node: dict[str, list[Span]] = {}
        for span in self.spans:
            if span.start is None:
                continue
            by_node.setdefault(span.node, []).append(span)
        for node, spans in by_node.items():
            pid = pid_for(node)
            lanes: list[float] = []  # lane -> end time of its last span
            for span in sorted(spans, key=lambda s: (s.start, s.name)):
                end = span.end if span.end is not None else span.start
                for tid, lane_end in enumerate(lanes):
                    if lane_end <= span.start:
                        lanes[tid] = end
                        break
                else:
                    tid = len(lanes)
                    lanes.append(end)
                args: dict[str, typing.Any] = {}
                if span.tx_id:
                    args["tx_id"] = span.tx_id
                if span.wait is not None:
                    args["queue_wait_s"] = span.wait
                if span.parent is not None:
                    args["parent"] = span.parent.name
                if span.args:
                    args.update(span.args)
                events.append({
                    "name": span.name,
                    "cat": span.category or "span",
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round((end - span.start) * 1e6, 3),
                    "pid": pid,
                    "tid": tid + 1,
                    "args": args,
                })
        for when, name, category, node, args in self.instants:
            events.append({
                "name": name,
                "cat": category or "instant",
                "ph": "i",
                "s": "p",
                "ts": round(when * 1e6, 3),
                "pid": pid_for(node),
                "tid": 0,
                "args": args or {},
            })
        if extra_events:
            for event in extra_events:
                event = dict(event)
                node = event.pop("node", "")
                event.setdefault("pid", pid_for(node))
                events.append(event)
        # Name the process rows after their nodes (metadata events).
        for label, pid in sorted(pids.items(), key=lambda item: item[1]):
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": label}})
            events.append({"name": "process_sort_index", "ph": "M",
                           "pid": pid, "args": {"sort_index": pid}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str,
                           extra_events: list[dict[str, typing.Any]] | None
                           = None) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(extra_events), handle)
