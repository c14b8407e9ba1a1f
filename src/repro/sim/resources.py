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

    def claim(self) -> Request:
        """Claim a slot without scheduling anything: the one claim rule.

        A free slot is taken at once, and the returned request is already
        granted; it is never waited on, so nothing is pushed.  Otherwise
        the request queues FIFO and fires when a release hands it the
        slot.  The queue is non-empty only while every slot is held, so
        a free slot never jumps a waiter.  The caller tells the two apart
        by ``request.triggered``: it yields a queued request, reports its
        wait on a monitored resource (:meth:`report_wait`), and releases
        the request either way.
        """
        request = Request(self)
        users = self._users
        monitor = self.monitor
        if len(users) < self.capacity and not self._queue:
            request._value = None
            users.add(request)
            if monitor is not None:
                request.granted_at = self.sim._now
                monitor.on_grant(0.0)
                monitor.on_state(len(users), 0)
        else:
            request.queued_at = self.sim._now
            self._queue.append(request)
            if monitor is not None:
                monitor.on_state(len(users), len(self._queue))
        return request

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted.

        :meth:`claim`, plus a grant event at the current time when the
        slot was free.
        """
        request = self.claim()
        if request._value is not _PENDING:
            sim = self.sim
            sim._fifo.append((sim._now, sim._seq, request))
            sim._seq += 1
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted slot and hand it to the next waiter."""
        users = self._users
        monitor = self.monitor
        if request in users:
            users.remove(request)
            if monitor is not None and request.granted_at is not None:
                monitor.on_release(self.sim._now - request.granted_at)
            queue = self._queue
            if queue:
                waiter = queue.popleft()
                users.add(waiter)
                # Inlined waiter.succeed(): a queued request is pending.
                waiter._value = None
                sim = self.sim
                now = sim._now
                sim._fifo.append((now, sim._seq, waiter))
                sim._seq += 1
                if monitor is not None:
                    waiter.granted_at = now
                    queued_at = waiter.queued_at
                    monitor.on_grant(now - queued_at
                                     if queued_at is not None else 0.0)
        else:
            # Cancelling a queued request is legal (e.g. on timeout races).
            try:
                self._queue.remove(request)
            except ValueError:
                raise RuntimeError(
                    "release() of a request that holds no slot and is "
                    "not queued") from None
            if monitor is not None:
                monitor.on_cancel()
        if monitor is not None:
            monitor.on_state(len(users), len(self._queue))

    def use(self, duration: float) -> typing.Generator[Event, typing.Any, None]:
        """Hold one slot for ``duration`` simulated seconds.

        A sub-generator for ``yield from``: acquires, holds, releases, and is
        exception-safe (the slot is released even if the caller is
        interrupted while holding it).

        The slot is taken with :meth:`claim`: when one is free, no grant
        event is scheduled, and the only yield is the service timeout.
        Acquisition time is identical either way (an immediate grant fires
        at the same timestamp it was requested), and FIFO order among
        *contended* requests is untouched.  Uncontended acquisitions
        dominate a reference run, and skipping their grant pops removes
        about a quarter of all kernel events.
        """
        request = self.claim()
        try:
            if request._value is _PENDING:
                yield request
                if self.monitor is not None:
                    self.report_wait(request)
            # Direct Timeout construction (not sim.timeout()): this is
            # one of the hottest yields in a run and the factory frame
            # is measurable in sampling profiles.
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
