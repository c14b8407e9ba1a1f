"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes yield
events to the simulation loop and are resumed when the event fires.  Events
may succeed (carrying a value) or fail (carrying an exception, which is
re-raised inside the waiting process).
"""

from __future__ import annotations

import typing
from bisect import insort
from heapq import heappush
from math import inf

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulation

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: *pending* (created, not yet fired),
    *triggered* (scheduled to fire at the current simulation time), and
    *processed* (callbacks have run).  Waiting processes register callbacks;
    the simulation loop invokes them when the event is popped.

    Events are the kernel's unit of allocation — hundreds of thousands per
    reference run — so the whole hierarchy uses ``__slots__`` and triggering
    pushes straight onto the simulation's schedule.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: typing.Any = _PENDING
        self._ok: bool = True
        # Set True once a failure's traceback has been consumed by a waiter,
        # so unhandled failures can be surfaced at the end of a run.
        self.defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        return self._value

    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._fifo.append((sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._fifo.append((sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float,
                 value: typing.Any = None) -> None:
        # Written so that NaN fails it too: a NaN or infinite delay could
        # never pop in time order.
        if not 0.0 <= delay < inf:
            raise ValueError(
                f"timeout delay must be finite and >= 0, got {delay} "
                f"(a negative delay would schedule into the past)")
        # Event.__init__ is inlined: timeouts are the single most common
        # allocation in a run, and the attribute values differ anyway
        # (a timeout is born carrying its value).
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay
        if delay == 0.0:
            sim._fifo.append((sim._now, sim._seq, self))
        else:
            # CalendarQueue.push inlined: timeouts are the dominant timed
            # push and the extra method frame showed up in sampling profiles.
            cal = sim._cal
            entry = (sim._now + delay, sim._seq, self)
            if entry[0] < cal.bucket_end:
                insort(cal.run, entry)
            else:
                heappush(cal.far, entry)
        sim._seq += 1

    @property
    def triggered(self) -> bool:
        # A timeout is born triggered: its value is fixed at creation.
        return True


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> typing.Any:
        """The cause passed to :meth:`repro.sim.core.Process.interrupt`."""
        return self.args[0]


class ConditionValue:
    """Mapping of events to values for fired :class:`AnyOf` / :class:`AllOf`.

    Supports ``event in result`` and ``result[event]`` so callers can ask
    which of the awaited events fired first and with what value.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __getitem__(self, event: Event) -> typing.Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<ConditionValue {len(self.events)} events>"


class _Condition(Event):
    """Base for composite events over a fixed list of sub-events: fires
    once ``_needed`` of them have fired, or fails with the first failure."""

    __slots__ = ("_fired", "_needed")

    def __init__(self, sim: "Simulation", events: typing.Sequence[Event]) -> None:
        super().__init__(sim)
        self._fired: list[Event] = []
        self._needed = self._need(len(events))
        for event in events:
            if event.sim is not sim:
                raise ValueError("events belong to different simulations")
        if not self._needed:
            self.succeed(ConditionValue(self._fired))
            return
        # Register on sub-events after validating all of them.  An event
        # counts as fired only once *processed* (its callbacks have run):
        # a pending Timeout already carries its value but has not fired yet.
        for event in events:
            if event.callbacks is None:
                self._on_sub_event(event)
            else:
                event.callbacks.append(self._on_sub_event)

    @staticmethod
    def _need(count: int) -> int:
        raise NotImplementedError

    def _on_sub_event(self, event: Event) -> None:
        # One call per sub-event of every fan-in (each VSCC job of a
        # block), so the trigger and push are written out inline.
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        fired = self._fired
        fired.append(event)
        if len(fired) == self._needed:
            # Nothing appends to ``fired`` once the condition has a value.
            self._value = ConditionValue(fired)
            sim = self.sim
            sim._fifo.append((sim._now, sim._seq, self))
            sim._seq += 1


class AnyOf(_Condition):
    """Fires when the first of the given events fires.

    With an empty event list it fires immediately (vacuous truth mirrors
    SimPy's behaviour and keeps fan-in loops simple).
    """

    __slots__ = ()

    @staticmethod
    def _need(count: int) -> int:
        return min(count, 1)


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    @staticmethod
    def _need(count: int) -> int:
        return count
