"""A simulated machine: network endpoint, multi-core CPU, dispatch loop.

Peers, ordering service nodes, Kafka brokers, ZooKeeper nodes, and clients
all extend :class:`NodeBase`.  A node registers message handlers by type;
the receive loop hands each incoming message to its own dispatch, so
handlers that block (on CPU, timers, or further messages) do not stall
message intake — mirroring gRPC servers, which accept concurrently.

The handler rule: a handler that never waits is a plain function; one that
waits is a generator, which runs in a process of its own.  Either starts
once the message's TLS charge ends.
"""

from __future__ import annotations

import typing

from repro.common.errors import ConfigurationError
from repro.runtime.context import NetworkContext
from repro.sim.core import Courier, Process, Simulation
from repro.sim.events import _PENDING, Event, Timeout
from repro.sim.network import Message, NodeDownError
from repro.sim.resources import Request, Resource

#: What a waiting handler returns: the generator of its waits.
Waits = typing.Generator[Event, typing.Any, None]
#: A plain function, or a generator function when the handler waits.
Handler = typing.Callable[[Message], Waits | None]


def _dispatch(waits: Waits) -> Waits:
    """The generator of a waiting handler's process: its name labels the
    handler's pops as its message's dispatch."""
    yield from waits


def _run_handler(sim: Simulation, handler: Handler,
                 message: Message) -> None:
    """Call ``handler``; a generator handler's waits get an eager process,
    so its first segment runs now, in the caller's pop."""
    waits = handler(message)
    if waits is not None:
        Process(sim, _dispatch(waits), daemon=True, eager=True)


class _Dispatch(Courier):
    """One received message's TLS charge, then its handler.

    The receive loop claims a core.  Its grant starts the TLS timeout,
    whose end releases the core and calls the handler.  These are the
    events, in the order, that a process waiting on each in turn would
    see, and their pops carry the label ``_dispatch``, as do the later
    pops of a waiting handler's process.
    """

    __slots__ = ("node", "handler", "message", "request")

    name = "_dispatch"

    def __init__(self, node: "NodeBase", handler: Handler,
                 message: Message, request: Request) -> None:
        self.node = node
        self.handler = handler
        self.message = message
        self.request = request

    def _charge(self, _granted: Event) -> None:
        node = self.node
        timeout = Timeout(node.sim, node.costs.tls_per_message_cpu)
        timeout.callbacks.append(self._handle)  # type: ignore[union-attr]

    def _handle(self, _charged: Event) -> None:
        request = self.request
        request.resource.release(request)
        _run_handler(self.node.sim, self.handler, self.message)


class NodeBase:
    """A named node with a CPU and a typed message-dispatch loop."""

    def __init__(self, context: NetworkContext, name: str,
                 cores: int = 4) -> None:
        if not name:
            raise ConfigurationError("node name must be non-empty")
        self.context = context
        self.sim = context.sim
        self.network = context.network
        self.costs = context.costs
        self.name = name
        self.cpu = Resource(self.sim, capacity=cores, name=f"{name}.cpu")
        self.network.add_node(name)
        self._handlers: dict[str, Handler] = {}
        self._receive_process = None
        self.crashed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the receive loop.  Subclasses extend to start timers."""
        if self._receive_process is None:
            self._receive_process = self.sim.process(self._receive_loop())

    def crash(self) -> None:
        """Fail-stop this node: drop traffic and ignore future messages."""
        self.crashed = True
        self.network.crash_node(self.name)

    def recover(self) -> None:
        """Bring the node back (volatile state retained unless overridden)."""
        self.crashed = False
        self.network.restore_node(self.name)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def on(self, msg_type: str, handler: Handler) -> None:
        """Register ``handler`` for messages of ``msg_type``.

        A handler that never waits is a plain function; one that waits (on
        CPU, timers or events) is a generator.
        """
        if msg_type in self._handlers:
            raise ConfigurationError(
                f"{self.name}: handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    def send(self, destination: str, msg_type: str, payload: typing.Any,
             size: int = 256) -> None:
        """Fire-and-forget send; silently dropped if this node is down."""
        try:
            # Positional: keyword construction of the slotted dataclass
            # costs about twice as much, once per send.
            self.network.send(Message(self.name, destination, msg_type,
                                      payload, size))
        except NodeDownError:
            pass

    def _receive_loop(self):
        while True:
            message = yield self.network.receive(self.name)
            if self.crashed:
                continue
            handler = self._handlers.get(message.msg_type)
            if handler is None:
                raise ConfigurationError(
                    f"{self.name}: no handler for {message.msg_type!r} "
                    f"(from {message.source})")
            if self.costs.tls_per_message_cpu > 0:
                # The TLS charge: claim a core and, when one is free, push
                # the grant as ``request()`` would.
                request = self.cpu.claim()
                if request._value is not _PENDING:
                    sim = self.sim
                    sim._fifo.append((sim._now, sim._seq, request))
                    sim._seq += 1
                dispatch = _Dispatch(self, handler, message, request)
                request.callbacks.append(  # type: ignore[union-attr]
                    dispatch._charge)
            else:
                _run_handler(self.sim, handler, message)

    # ------------------------------------------------------------------
    # CPU helpers
    # ------------------------------------------------------------------

    def compute(self, cpu_seconds: float):
        """Sub-generator: occupy one core for ``cpu_seconds``."""
        yield from self.cpu.use(cpu_seconds)

    @property
    def tracer(self):
        """The context's span tracer (read dynamically: observability may
        be installed after node construction)."""
        return self.context.tracer

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
