"""FIFO resources and stores for the simulation kernel.

- :class:`Resource` models a pool of identical servers (CPU cores,
  endorsement slots, validator workers).  Requests queue FIFO.
- :class:`Store` is an unbounded FIFO queue of items; getters block until an
  item is available.  It is the building block for mailboxes and channels.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import _PENDING, Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulation


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "queued_at", "granted_at")

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__ inlined: one Request per resource acquisition
        # makes this the second most common allocation in a run.
        self.sim = resource.sim
        self.callbacks: list[typing.Callable[[Event], None]] | None = []
        self._value: typing.Any = _PENDING
        self._ok = True
        self.defused = False
        self.resource = resource
        #: Simulated time the request entered the wait queue (observability).
        self.queued_at: float | None = None
        #: Simulated time the slot was granted; populated only while the
        #: resource is monitored (it feeds the service-time histogram).
        self.granted_at: float | None = None


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue.

    Usage from a process::

        request = resource.request()
        yield request
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(request)

    or, more conveniently, ``yield from resource.use(service_time)``.
    """

    __slots__ = ("sim", "capacity", "name", "monitor", "_users", "_queue")

    def __init__(self, sim: "Simulation", capacity: int = 1,
                 name: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        #: Identity for observability; also used in monitor reports.
        self.name = name
        #: Attached :class:`~repro.obs.sampler.ResourceMonitor`, if any.
        #: When ``None`` (the default) instrumentation costs one ``is``
        #: test per state change and records nothing.
        self.monitor: typing.Any = None
        self._users: set[Request] = set()
        self._queue: collections.deque[Request] = collections.deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        request = Request(self)
        users = self._users
        if len(users) < self.capacity:
            users.add(request)
            # Inlined request.succeed(): a fresh Request cannot have been
            # triggered, so only the trigger-and-schedule half remains.
            request._value = None
            sim = self.sim
            sim._fifo.append((sim._now, sim._seq, request))
            sim._seq += 1
            if self.monitor is not None:
                request.granted_at = sim._now
                self.monitor.on_grant(0.0)
                self.monitor.on_state(len(users), len(self._queue))
        else:
            request.queued_at = self.sim._now
            self._queue.append(request)
            if self.monitor is not None:
                self.monitor.on_state(len(users), len(self._queue))
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request in self._users:
            self._users.remove(request)
            if (self.monitor is not None
                    and request.granted_at is not None):
                self.monitor.on_release(self.sim.now - request.granted_at)
            if self._queue:
                self._grant_next()
        else:
            # Cancelling a queued request is legal (e.g. on timeout races).
            try:
                self._queue.remove(request)
            except ValueError:
                raise RuntimeError(
                    "release() of a request that holds no slot and is "
                    "not queued") from None
            if self.monitor is not None:
                self.monitor.on_cancel()
        if self.monitor is not None:
            self.monitor.on_state(len(self._users), len(self._queue))

    def use(self, duration: float) -> typing.Generator[Event, typing.Any, None]:
        """Hold one slot for ``duration`` simulated seconds.

        A sub-generator for ``yield from``: acquires, holds, releases, and is
        exception-safe (the slot is released even if the caller is
        interrupted while holding it).

        When a slot is free the claim happens synchronously — no grant
        event is scheduled, and the only yield is the service timeout.
        Acquisition time is identical either way (an immediate grant fires
        at the same timestamp it was requested), and FIFO order among
        *contended* requests is untouched: the queue is non-empty only when
        every slot is held, which forces the slow path.  Uncontended
        acquisitions dominate a reference run, and skipping their grant
        pops removes about a quarter of all kernel events.
        """
        users = self._users
        if len(users) < self.capacity and not self._queue:
            request = Request(self)
            request._value = None  # triggered; it is never waited on
            users.add(request)
            if self.monitor is not None:
                request.granted_at = self.sim.now
                self.monitor.on_grant(0.0)
                self.monitor.on_state(len(users), len(self._queue))
            try:
                # Direct Timeout construction (not sim.timeout()): this is
                # one of the hottest yields in a run and the factory frame
                # is measurable in sampling profiles.
                yield Timeout(self.sim, duration)
            finally:
                self.release(request)
            return
        # Contended: acquire() written out inline, one generator frame
        # fewer on every queued claim.
        request = self.request()
        try:
            yield request
            if self.monitor is not None:
                self.report_wait(request)
            yield Timeout(self.sim, duration)
        finally:
            self.release(request)

    def acquire(self) -> typing.Generator[Event, typing.Any, Request]:
        """Sub-generator: claim a slot; returns the granted :class:`Request`.

        Equivalent to ``request()`` + ``yield`` (same events, same order),
        but on a *monitored* resource the measured queue wait is reported
        to the tracer automatically, which attaches it to the caller's
        innermost open span — call sites no longer compute it by hand.
        """
        request = self.request()
        try:
            yield request
        except BaseException:
            # The waiter died at the grant yield (interrupt / process
            # kill): hand the granted slot back — or cancel the queued
            # request — so the pool's capacity cannot leak away.
            self.release(request)
            raise
        if self.monitor is not None:
            self.report_wait(request)
        return request

    def report_wait(self, request: Request) -> None:
        """Report a just-granted request's queue wait to the monitor.

        The monitor's tracer attaches it to the innermost open span of the
        active process, the waiter.  Callers test ``monitor`` first, which
        keeps the call off unmonitored runs.
        """
        queued_at = request.queued_at
        self.monitor.note_wait(self.sim.now - queued_at
                               if queued_at is not None else 0.0)

    def _grant_next(self) -> None:
        if self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.add(request)
            # Inlined request.succeed() (see request()).
            request._value = None
            sim = self.sim
            sim._fifo.append((sim._now, sim._seq, request))
            sim._seq += 1
            if self.monitor is not None:
                request.granted_at = sim._now
                wait = (sim._now - request.queued_at
                        if request.queued_at is not None else 0.0)
                self.monitor.on_grant(wait)


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item (immediately if one is buffered).  Items are delivered to getters in
    FIFO order of both items and getters.
    """

    __slots__ = ("sim", "name", "monitor", "_items", "_getters")

    def __init__(self, sim: "Simulation", name: str | None = None) -> None:
        self.sim = sim
        #: Identity for observability; also used in monitor reports.
        self.name = name
        #: Attached :class:`~repro.obs.sampler.ResourceMonitor`, if any.
        self.monitor: typing.Any = None
        self._items: collections.deque[typing.Any] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        """Number of processes blocked on :meth:`get`."""
        return len(self._getters)

    def put(self, item: typing.Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._value is _PENDING:
                # Inlined getter.succeed(item).
                getter._value = item
                sim = self.sim
                sim._fifo.append((sim._now, sim._seq, getter))
                sim._seq += 1
                if self.monitor is not None:
                    self._note_state()
                return
        self._items.append(item)
        if self.monitor is not None:
            self._note_state()

    def get(self) -> Event:
        """Event firing with the next item (possibly already buffered)."""
        sim = self.sim
        event = Event(sim)
        items = self._items
        if items:
            # Inlined event.succeed(next item).
            event._value = items.popleft()
            sim._fifo.append((sim._now, sim._seq, event))
            sim._seq += 1
        else:
            self._getters.append(event)
        if self.monitor is not None:
            self._note_state()
        return event

    def _note_state(self) -> None:
        if self.monitor is not None:
            self.monitor.on_state(len(self._getters), len(self._items))

    def drain(self) -> list[typing.Any]:
        """Remove and return all buffered items without blocking."""
        items = list(self._items)
        self._items.clear()
        self._note_state()
        return items
