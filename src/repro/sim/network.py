"""Simulated LAN: point-to-point links with latency and bandwidth.

The paper's testbed is a 20-machine cluster on 1 Gbps Ethernet.  We model it
as a full mesh of point-to-point links.  Each link has:

- a propagation latency (with jitter, drawn per message), and
- a bandwidth; a message of ``size`` bytes occupies the sender's link for
  ``size / bandwidth`` seconds (serialization delay), FIFO per link.

Serialization happens at the sender's NIC: all of a node's outgoing
messages share its single network interface, so fanning a block out to ten
peers costs ten transmission times — exactly the constraint that makes
block propagation bandwidth-sensitive on a real cluster.  (Ingress
serialization is not modelled; egress fan-out dominates in this topology.)

Messages are delivered into per-node mailboxes (a :class:`Store` per node).
A node's receive loop is simply ``msg = yield network.receive(node)``.

Links can be taken down and brought back up to model crash faults: messages
sent while a link (or the destination node) is down are dropped, which is how
Raft/Kafka failure-injection tests partition nodes.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.sim.core import Courier
from repro.sim.events import _PENDING, Event, Timeout
from repro.sim.resources import Request, Resource, Store

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulation
    from repro.sim.rng import RngRegistry

_message_counter = itertools.count()


@dataclasses.dataclass(slots=True)
class Message:
    """A network message between two named nodes."""

    source: str
    destination: str
    msg_type: str
    payload: typing.Any
    size: int = 256
    sent_at: float = 0.0
    delivered_at: float = 0.0
    # Bound __next__ avoids a lambda frame per message (one per send).
    msg_id: int = dataclasses.field(default_factory=_message_counter.__next__)

    def __repr__(self) -> str:
        return (f"<Message #{self.msg_id} {self.msg_type} "
                f"{self.source}->{self.destination} {self.size}B>")


class Link:
    """A unidirectional link: propagation latency, bandwidth, statistics.

    Serialization is charged at the sending node's NIC (see
    :class:`Network`), not per link pair.
    """

    def __init__(self, sim: "Simulation", latency: float,
                 bandwidth: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.up = True
        self.bytes_sent = 0
        self.messages_sent = 0
        self.messages_dropped = 0

    def transmission_delay(self, size: int) -> float:
        """Seconds the wire is occupied by ``size`` bytes."""
        return size / self.bandwidth


class NodeDownError(Exception):
    """Raised when sending from a node that has been crashed."""


class _Passage(Courier):
    """One message's way through the network, as three event callbacks.

    :meth:`Network.send` claims the sender's NIC.  Its grant starts the
    serialization timeout; that timeout's end releases the NIC and starts
    the propagation timeout, whose end delivers the message or drops it.
    These are the events, in the order, that a process waiting on each in
    turn would see, and their pops carry the label ``_transmit``.
    """

    __slots__ = ("network", "message", "link", "request")

    name = "_transmit"

    def __init__(self, network: "Network", message: Message, link: Link,
                 request: Request) -> None:
        self.network = network
        self.message = message
        self.link = link
        self.request = request

    def _serialize(self, _granted: Event) -> None:
        timeout = Timeout(self.network.sim,
                          self.message.size / self.link.bandwidth)
        timeout.callbacks.append(self._propagate)  # type: ignore[union-attr]

    def _propagate(self, _serialized: Event) -> None:
        request = self.request
        request.resource.release(request)
        network = self.network
        message = self.message
        link = self.link
        link.bytes_sent += message.size
        link.messages_sent += 1
        # Inlined RngRegistry.jittered (same draw semantics: no stream
        # consumption when jitter is off, clamped uniform otherwise).
        # Latency streams are single-signature (every draw is this
        # uniform), so they run through vectorised BatchSamplers; the
        # sampler's uniform() applies the identical float transform, so
        # latencies are bit-identical to sequential draws.
        jitter = network.latency_jitter
        mean = link.latency
        if jitter <= 0:
            latency = mean
        else:
            source = message.source
            sampler = network._latency_rng.get(source)
            if sampler is None:
                sampler = network.rng.sampler(f"net.latency.{source}")
                network._latency_rng[source] = sampler
            latency = sampler.uniform(mean * (1.0 - jitter),
                                      mean * (1.0 + jitter))
            if latency < 0.0:
                latency = 0.0
        timeout = Timeout(network.sim, latency)
        timeout.callbacks.append(self._deliver)  # type: ignore[union-attr]

    def _deliver(self, _propagated: Event) -> None:
        network = self.network
        message = self.message
        link = self.link
        down = network._down_nodes
        if (not link.up or message.source in down
                or message.destination in down):
            link.messages_dropped += 1
            return
        message.delivered_at = network.sim._now
        network._mailboxes[message.destination].put(message)


class Network:
    """A full mesh of :class:`Link` objects plus per-node mailboxes."""

    def __init__(self, sim: "Simulation", rng: "RngRegistry",
                 default_latency: float = 0.00025,
                 default_bandwidth: float = 125_000_000.0,
                 latency_jitter: float = 0.2) -> None:
        self.sim = sim
        self.rng = rng
        self.default_latency = default_latency
        self.default_bandwidth = default_bandwidth
        self.latency_jitter = latency_jitter
        self._mailboxes: dict[str, Store] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._nics: dict[str, Resource] = {}
        self._down_nodes: set[str] = set()
        # Per-source latency stream, resolved once instead of an f-string
        # plus registry probe per transmitted message.  Same stream object,
        # same draw sequence — the schedule is unchanged.
        self._latency_rng: dict[str, typing.Any] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Register a node; idempotent."""
        if name not in self._mailboxes:
            self._mailboxes[name] = Store(self.sim, name=f"{name}.mailbox")
            self._nics[name] = Resource(self.sim, capacity=1,
                                        name=f"{name}.nic")

    @property
    def nodes(self) -> list[str]:
        return list(self._mailboxes)

    def link(self, source: str, destination: str) -> Link:
        """The link from ``source`` to ``destination`` (created lazily)."""
        key = (source, destination)
        link = self._links.get(key)
        if link is None:
            link = Link(self.sim, self.default_latency, self.default_bandwidth)
            self._links[key] = link
        return link

    def set_link(self, source: str, destination: str, latency: float,
                 bandwidth: float) -> None:
        """Override the latency/bandwidth of one directed link."""
        self._links[(source, destination)] = Link(
            self.sim, latency, bandwidth)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash_node(self, name: str) -> None:
        """Drop all future traffic to and from ``name``."""
        self._down_nodes.add(name)

    def restore_node(self, name: str) -> None:
        """Resume delivery to and from ``name``."""
        self._down_nodes.discard(name)

    def is_up(self, name: str) -> bool:
        return name not in self._down_nodes

    # ------------------------------------------------------------------
    # Send / receive
    # ------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Transmit ``message``; delivery is asynchronous (fire and forget).

        Raises :class:`KeyError` for unknown nodes so wiring bugs fail fast.
        Raises :class:`NodeDownError` if the sender has been crashed (a dead
        process should not be able to speak).
        """
        if message.destination not in self._mailboxes:
            raise KeyError(f"unknown destination node {message.destination!r}")
        if message.source not in self._mailboxes:
            raise KeyError(f"unknown source node {message.source!r}")
        if message.source in self._down_nodes:
            raise NodeDownError(f"node {message.source!r} is down")
        sim = self.sim
        message.sent_at = sim._now
        link = self.link(message.source, message.destination)
        # Serialization at the sender's (single, shared) NIC: claim it and,
        # when it is free, push the grant as ``request()`` would.  The
        # passage's later steps run as the courier's callbacks.
        request = self._nics[message.source].claim()
        if request._value is not _PENDING:
            sim._fifo.append((sim._now, sim._seq, request))
            sim._seq += 1
        passage = _Passage(self, message, link, request)
        request.callbacks.append(passage._serialize)  # type: ignore[union-attr]

    def receive(self, name: str) -> Event:
        """Event firing with the next message addressed to ``name``."""
        return self._mailboxes[name].get()

    def mailbox(self, name: str) -> Store:
        """Direct access to a node's mailbox (for inspection in tests)."""
        return self._mailboxes[name]

    def nic(self, name: str) -> Resource:
        """The node's egress NIC resource (for observability attachment)."""
        return self._nics[name]
