"""The simulation loop and generator-based processes.

The kernel is a classic discrete-event loop: ``(time, seq, event)`` entries
popped in order; popping an event runs its callbacks, which resume waiting
processes.  Processes are plain Python generators that yield
:class:`~repro.sim.events.Event` objects.

The schedule lives in two tiers (see :mod:`repro.sim.scheduler` for the
design rationale): a comparison-free FIFO ring for due-now events plus a
calendar/sorted two-tier queue for timed events.  :meth:`Simulation.run`
is the only code that pops them, in the order a single binary heap of
``(time, seq)`` keys would — the golden trace digests pin that order end
to end.

Determinism: ties on time are broken by a monotonically increasing sequence
number, so two runs with the same seed produce identical schedules.
"""

from __future__ import annotations

import gc
import typing
from collections import deque
from math import inf

from repro.sim.events import (
    _PENDING as _SENTINEL_PENDING,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.scheduler import CalendarQueue

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class PopHook(typing.Protocol):
    """What :meth:`Simulation.set_trace` installs, e.g. a
    :class:`~repro.sim.sanitizer.TraceDigest`: called once per pop."""

    def record(self, when: float, seq: int, event: Event) -> None:
        ...


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulation.run` early."""


class Simulation:
    """The discrete-event loop and simulated clock.

    Typical use::

        sim = Simulation()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.0
    """

    __slots__ = ("_now", "_seq", "_active_process", "_trace",
                 "events_processed", "_fifo", "_cal")

    def __init__(self) -> None:
        self._now: float = 0.0
        #: Sequence number of the next push: every push takes one, so
        #: ties on time pop in push order.
        self._seq: int = 0
        self._active_process: Process | None = None
        #: Total events popped over this simulation's lifetime (perf
        #: instrumentation: events/s is the kernel's native throughput).
        self.events_processed: int = 0
        #: Pop hook (the determinism sanitizer's digest, the perfbench
        #: owner census); when set, every popped event is fed to it.
        #: ``None`` (the default) costs one ``is`` test per pop.
        self._trace: PopHook | None = None
        # The two tiers are pushed to inline at every push site
        # (events.py, resources.py, and this module): a method call per
        # push would be measurable.  Due-now entries go to the FIFO ring,
        # timed ones to the calendar queue.
        self._fifo: "deque[tuple[float, int, Event]]" = deque()
        self._cal = CalendarQueue()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> "Process | None":
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a negative delay would
        schedule an event *before* already-popped ones, and a NaN or
        infinite one could never pop in time order.
        :class:`~repro.sim.events.Timeout` enforces this.
        """
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, daemon: bool = False,
                eager: bool = False) -> "Process":
        """Start ``generator`` as a process; returns its completion event.

        ``daemon`` marks a fire-and-forget process: if nothing is waiting
        on it when it finishes successfully, no completion event is
        scheduled (the handle is marked processed directly, so late
        joiners still work, and failures are always scheduled so they
        surface).

        ``eager`` advances the generator to its first yield synchronously
        instead of scheduling an init event at the current time.  The
        process's first actions (resource claims, sends) then happen at
        spawn rather than after one extra pop of the event loop — correct
        whenever spawn order is the ordering that matters, as it is for a
        block's VSCC jobs and a message handler that waits (the jobs
        claim the worker pool in list order, and the handler's first
        segment runs in the pop that ends its message's TLS charge).
        Leave it off for processes whose first actions race other
        same-time processes through a shared resource.

        A waiting handler's process uses both flags, which keeps its init
        and completion pops off the schedule.  A message's own passage and
        dispatch build no process at all: they are :class:`Courier`
        callbacks.
        """
        return Process(self, generator, daemon=daemon, eager=eager)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the main loop
    # ------------------------------------------------------------------

    def _enqueue(self, event: Event) -> None:
        """Schedule ``event``'s callbacks to run at the current time."""
        self._fifo.append((self._now, self._seq, event))
        self._seq += 1

    def set_trace(self, trace: PopHook | None) -> None:
        """Install (or remove) the pop hook: ``trace.record(time, seq,
        event)`` runs for every popped entry, before its callbacks."""
        self._trace = trace

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run until the schedule drains, ``until`` passes, or an event fires.

        ``until`` may be a simulated-time horizon (float), an event (run until
        it fires and return its value), or ``None`` (drain all events).

        This pop/dispatch loop is the simulator's hottest code, written
        inline with hoisted locals.  Selection is a two-way head
        comparison (FIFO ring vs current calendar bucket): the far tier
        holds only entries at or beyond ``bucket_end``, so it can never
        own the minimum, and FIFO entries (time <= now < bucket_end)
        always precede it too.

        CPython's automatic cyclic collector is paused while the loop runs
        and turned back on, however the loop ends, only if the caller had
        it on; thresholds are never touched, and an explicit
        ``gc.collect()`` still runs.  It is safe because a run allocates no
        reference cycles: every simulator object dies by reference count,
        and ``tests/sim/test_acyclic.py`` holds that as a contract.  A
        cycle that a run does create is held until ``run`` returns.
        """
        stop_event: Event | None = None
        # inf instead of None: one float compare per pop, no None test.
        horizon = inf
        explicit_horizon = False
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_callback)
        elif until is not None:
            horizon = float(until)
            explicit_horizon = True
            # Written so that NaN fails it too: a NaN horizon never stops,
            # and draining to an infinite one would leave now == inf.
            if not self._now <= horizon < inf:
                raise ValueError(
                    f"until={horizon} must be a finite time >= now "
                    f"({self._now})")
        fifo = self._fifo
        cal = self._cal
        fifo_popleft = fifo.popleft
        # run/run_idx are hoisted loop-locals, synced back in the finally
        # block.  Callbacks may insort new entries into cal.run (growing it
        # behind run_idx is impossible: fresh pushes land after the consumed
        # prefix because their time exceeds now), so len(run) is re-read
        # every iteration while run_idx stays private to this frame.
        run = cal.run
        run_idx = cal.run_idx
        far = cal.far
        steps = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if run_idx < len(run):
                    entry = run[run_idx]
                    if fifo and fifo[0] < entry:
                        entry = fifo_popleft()
                    else:
                        run_idx += 1
                elif fifo:
                    entry = fifo_popleft()
                elif far:
                    cal.advance()
                    run = cal.run
                    run_idx = 0
                    continue
                else:
                    break
                when = entry[0]
                if when > horizon:
                    # Un-pop so the next bounded run() resumes exactly here.
                    # Only a bucket entry can pass the horizon: a FIFO
                    # entry's time is <= now <= horizon.
                    run_idx -= 1
                    self._now = horizon
                    return None
                event = entry[2]
                self._now = when
                steps += 1
                trace = self._trace
                if trace is not None:
                    trace.record(when, entry[1], event)
                callbacks = event.callbacks
                event.callbacks = None
                # callbacks is never None here: a popped event has not been
                # processed before (each entry is pushed exactly once).
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)
                if not event._ok and not event.defused:
                    # Nobody waited on this failed event: surface the error
                    # rather than letting it pass silently.
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            self.events_processed += steps
            cal.run_idx = run_idx
            if collecting:
                gc.enable()
        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                "simulation ran out of events before `until` event fired")
        if explicit_horizon:
            # The schedule drained before the horizon; advance the clock so
            # repeated bounded runs observe monotonic time.
            self._now = max(self._now, horizon)
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event.ok:
            raise StopSimulation(event.value)
        event.defused = True
        raise event.value


class Courier:
    """Base of an activity driven by event callbacks, not by a generator.

    A courier walks a fixed chain of waits: each step is one of its bound
    methods, registered on the event the previous step pushed.  It builds
    no generator and no completion event, so nothing can join it, and an
    exception in a step raises straight out of :meth:`Simulation.run`.
    :func:`~repro.sim.sanitizer.event_owner` labels a pop whose callback
    is bound to a courier by the class's :attr:`name`, as it labels a
    process by its generator's name.
    """

    __slots__ = ()

    #: The owner label of every pop that one of this courier's steps
    #: receives; each subclass names itself.
    name: typing.ClassVar[str]


class _EagerInitSentinel:
    """Stand-in for the init event of eager process spawns.

    ``Process._resume`` reads only ``_ok``/``_value`` from a successful
    event, and an eager init is invisible to everything else, so a single
    shared instance replaces ~10^5 per-run Event allocations (one per
    VSCC job, waiting message handler and transaction flow).
    """

    __slots__ = ()

    _ok = True
    _value = None
    defused = False


_EAGER_INIT = typing.cast(Event, _EagerInitSentinel())


class Process(Event):
    """A running generator, resumable by the events it yields.

    A ``Process`` is itself an event: it fires when the generator returns
    (success, with the return value) or raises (failure).  Other processes
    may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_send", "_target", "_daemon")

    def __init__(self, sim: Simulation, generator: ProcessGenerator,
                 daemon: bool = False, eager: bool = False) -> None:
        # Event.__init__ inlined: one Process per VSCC job and waiting
        # message handler makes even the super() frame measurable.
        self.sim = sim
        self.callbacks = []
        self._value = _SENTINEL_PENDING
        self._ok = True
        self.defused = False
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        # Bound method cached once: _resume runs ~10^6 times per reference
        # run and the send attribute lookup is measurable there.
        self._send = generator.send
        self._daemon = daemon
        if eager:
            # Advance to the first yield right now, with no init event.
            # _resume clears the active process on exit, so the spawning
            # process's slot is saved and restored around the nested call.
            # The init "event" is a shared pre-succeeded sentinel: _resume
            # only reads ._ok/._value from it and an eager init is never
            # waited on, so one allocation serves every eager spawn.
            self._target: Event | None = None
            previous = sim._active_process
            self._resume(_EAGER_INIT)
            sim._active_process = previous
            return
        # Kick off the generator at the current time via an initial event
        # (pre-succeeded, pushed directly onto the FIFO ring).
        init = Event(sim)
        init._value = None
        assert init.callbacks is not None
        init.callbacks.append(self._resume)
        sim._fifo.append((sim._now, sim._seq, init))
        sim._seq += 1
        self._target = init

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def name(self) -> str:
        """The generator's function name, for diagnostics."""
        return getattr(self._generator, "__name__", repr(self._generator))

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered asynchronously (via a failed event) so the
        interrupter continues running first.
        """
        if not self.is_alive:
            return
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks = [self._resume_interrupt]
        self.sim._enqueue(event)

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return
        # Detach from whatever the process was waiting on; the stale callback
        # must be removed so the old target cannot resume us twice.
        if self._target is not None and not self._target.processed:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # This is the single hottest function in a reference run (once per
        # process resume, ~10^6 times): advancing the generator and
        # re-registering on its next yield happen in one frame rather than
        # a _resume -> _step call pair.
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                next_target = self._send(event._value)
            else:
                event.defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self._value = stop.value
            if self._daemon and not self.callbacks:
                # Nobody joined this fire-and-forget process: complete it
                # in place instead of scheduling a no-op pop.  A later
                # yield of the handle takes the already-processed path.
                self.callbacks = None
            else:
                # Inlined self.succeed(): a generator stops only once.
                sim._fifo.append((sim._now, sim._seq, self))
                sim._seq += 1
            return
        except BaseException as error:
            sim._active_process = None
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(error)
            return
        sim._active_process = None
        # The callbacks attribute doubles as the Event type check: anything
        # else a process yields lacks it (cheaper than an isinstance per
        # resume, and the attribute is needed right after anyway).
        try:
            target_callbacks = next_target.callbacks
        except AttributeError:
            raise TypeError(
                f"process {self.name!r} yielded {next_target!r}, "
                "which is not an Event") from None
        if target_callbacks is None:
            # Already processed: resume immediately-ish (at current time).
            resume = Event(sim)
            resume._ok = next_target._ok
            resume._value = next_target._value
            if not next_target._ok:
                next_target.defused = True
                resume.defused = True
            resume.callbacks = [self._resume]
            sim._fifo.append((sim._now, sim._seq, resume))
            sim._seq += 1
            self._target = resume
        else:
            target_callbacks.append(self._resume)
            self._target = next_target
