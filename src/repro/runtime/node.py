"""A simulated machine: network endpoint, multi-core CPU, dispatch loop.

Peers, ordering service nodes, Kafka brokers, ZooKeeper nodes, and clients
all extend :class:`NodeBase`.  A node registers message handlers by type;
the receive loop dispatches each incoming message to its handler as a new
process, so handlers that block (on CPU, timers, or further messages) do not
stall message intake — mirroring gRPC servers, which accept concurrently.

The handler rule: a handler that never waits is a plain function; one that
waits is a generator, which the dispatch process drives with ``yield from``.
Either runs once the message's TLS charge ends.
"""

from __future__ import annotations

import typing

from repro.common.errors import ConfigurationError
from repro.runtime.context import NetworkContext
from repro.sim.core import Process
from repro.sim.events import Event, Timeout
from repro.sim.network import Message, NodeDownError
from repro.sim.resources import Resource

#: A plain function, or a generator function when the handler waits.
Handler = typing.Callable[
    [Message], typing.Generator[Event, typing.Any, None] | None]


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
            # Direct Process construction (not sim.process()): one spawn
            # per delivered message makes the factory frame measurable.
            Process(self.sim, self._dispatch(handler, message), daemon=True,
                    eager=True)

    def _dispatch(self, handler: Handler, message: Message):
        # The TLS charge is cpu.use() flattened inline: one _dispatch per
        # received message makes this the second-hottest generator in a
        # reference run, and the sub-generator's create/delegate overhead
        # is measurable.  Same events in the same order (Request, Timeout).
        tls = self.costs.tls_per_message_cpu
        if tls > 0:
            cpu = self.cpu
            request = cpu.request()
            try:
                # Grant wait inside the try: an interrupt here must
                # still return the slot.
                yield request
                yield Timeout(self.sim, tls)
            finally:
                cpu.release(request)
        waits = handler(message)
        if waits is not None:
            yield from waits

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
