"""The ordering front every ordering service node shares.

An OSN accepts ``broadcast`` messages carrying endorsed transaction
envelopes, performs the orderer-side checks (channel match, size limits,
light CPU cost per envelope — the orderer does *not* validate transactions,
§IV.C), hands the envelope to the consensus backend, assembles blocks, signs
them, delivers them to subscribed peers, and acknowledges the submitting
client once the envelope has been ordered.

This front owns the block path: ``_consume_ordered`` feeds the cutter, and
``_next_block``, ``_sign`` and ``_commit_block`` number, sign, count,
deliver and acknowledge every block.  A backend supplies ``_submit`` and
``_submit_ttc``; Raft also overrides ``_emit_block`` to propose the block.

Ordering is **per channel** (§II: "the ordering service receives
transactions from all channels ... orders them chronologically on a
per-channel basis"): each OSN keeps one block cutter, chain tail, and
subscriber list per channel it serves.
"""

from __future__ import annotations

import typing

from repro.common.config import OrdererConfig
from repro.common.types import Block, TransactionEnvelope
from repro.msp.identity import Identity
from repro.orderer.blockcutter import BlockCutter
from repro.runtime.context import NetworkContext
from repro.runtime.node import NodeBase
from repro.sim.network import Message


class ChannelChain:
    """Per-channel ordering state at one OSN."""

    def __init__(self, channel: str, config: OrdererConfig) -> None:
        self.channel = channel
        self.cutter = BlockCutter(config)
        self.next_block_number = 1
        self.previous_hash = Block.genesis(channel).header_hash()
        self.subscribers: list[str] = []
        self.timer_epoch = 0
        self.blocks_cut = 0
        #: Delivered blocks by number, in order: peer redelivery requests
        #: and a new Raft leader's chain tail read them.
        self.delivered: dict[int, Block] = {}


def _as_channel_list(channel: str | typing.Sequence[str]) -> list[str]:
    if isinstance(channel, str):
        return [channel]
    return list(channel)


class OrderingServiceNode(NodeBase):
    """Base OSN: broadcast intake, block assembly, deliver service."""

    def __init__(self, context: NetworkContext, name: str,
                 config: OrdererConfig,
                 channel: str | typing.Sequence[str], identity: Identity,
                 metrics_leader: bool = False) -> None:
        super().__init__(context, name, cores=context.costs.orderer_cores)
        self.config = config
        channels = _as_channel_list(channel)
        if not channels:
            raise ValueError("an OSN must serve at least one channel")
        self.identity = identity
        self.metrics_leader = metrics_leader
        self.chains: dict[str, ChannelChain] = {
            name_: ChannelChain(name_, config) for name_ in channels}
        #: The first (default) channel, for single-channel deployments.
        self.channel = channels[0]
        # tx_id -> client node name awaiting a broadcast ack.
        self._pending_acks: dict[str, str] = {}
        self.envelopes_received = 0
        self.on("broadcast", self._handle_broadcast)
        self.on("deliver_subscribe", self._handle_subscribe)
        self.on("deliver_resend", self._handle_deliver_resend)

    # ------------------------------------------------------------------
    # Channel accessors
    # ------------------------------------------------------------------

    def chain(self, channel: str) -> ChannelChain:
        return self.chains[channel]

    @property
    def channels(self) -> list[str]:
        return list(self.chains)

    @property
    def cutter(self) -> BlockCutter:
        """Default channel's cutter (single-channel convenience)."""
        return self.chains[self.channel].cutter

    @property
    def next_block_number(self) -> int:
        return self.chains[self.channel].next_block_number

    @property
    def blocks_cut(self) -> int:
        return sum(chain.blocks_cut for chain in self.chains.values())

    # ------------------------------------------------------------------
    # Broadcast intake
    # ------------------------------------------------------------------

    def _handle_broadcast(self, message: Message):
        envelope: TransactionEnvelope = message.payload
        with self.tracer.span("order.broadcast", category="order",
                              node=self.name, tx_id=envelope.tx_id) as span:
            yield from self.compute(self.costs.orderer_per_envelope_cpu)
            if envelope.channel not in self.chains:
                self.send(message.source, "broadcast_nack",
                          {"tx_id": envelope.tx_id, "reason": "bad channel"})
                span.annotate(outcome="nack")
                return
            self.envelopes_received += 1
            self._pending_acks[envelope.tx_id] = message.source
            yield from self._submit(envelope)

    def _submit(self, envelope: TransactionEnvelope
                ) -> typing.Generator[typing.Any, typing.Any, None]:
        """Hand an accepted envelope to the consensus backend."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclasses

    def _handle_subscribe(self, message: Message):
        channels = message.payload.get("channels") or self.channels
        for channel in channels:
            chain = self.chains.get(channel)
            if chain is not None and message.source not in chain.subscribers:
                chain.subscribers.append(message.source)

    def _handle_deliver_resend(self, message: Message):
        """Resend one already-delivered block (peer-side drop recovery)."""
        chain = self.chains.get(message.payload["channel"])
        if chain is None:
            return
        block = chain.delivered.get(message.payload["number"])
        if block is not None:
            self.send(message.source, "block", block,
                      size=block.wire_size())

    # ------------------------------------------------------------------
    # Ordered-stream consumption
    # ------------------------------------------------------------------

    def _consume_ordered(self, item: tuple[str, typing.Any]):
        """Feed one ordered item into the channel's block cutter.

        Serves all three kinds: Solo feeds its local stream, Kafka the
        partition's committed stream, and Raft the leader's intake.  Items
        are ``("tx", envelope)`` or ``("ttc", (channel, number))``.  A TTC
        marker cuts only if it targets the block currently being assembled
        on that channel; stale markers (another OSN's timer raced a
        size-triggered cut) are ignored by all OSNs identically.
        """
        kind, payload = item
        if kind == "tx":
            chain = self.chains[payload.channel]
            batches = chain.cutter.add(payload)
            if chain.cutter.pending_count == 1 and not batches:
                self._arm_timeout(chain)
            for batch in batches:
                yield from self._emit_block(chain, batch)
        elif kind == "ttc":
            channel, block_number = payload
            chain = self.chains.get(channel)
            if (chain is not None
                    and block_number == chain.next_block_number
                    and chain.cutter.has_pending):
                yield from self._emit_block(chain, chain.cutter.cut())
        else:
            raise ValueError(f"unknown ordered item kind {kind!r}")

    def _arm_timeout(self, chain: ChannelChain) -> None:
        """Start the BatchTimeout timer for the batch forming now."""
        chain.timer_epoch += 1
        self.sim.process(self._timeout_timer(
            chain, chain.timer_epoch, chain.next_block_number))

    def _timeout_timer(self, chain: ChannelChain, epoch: int,
                       block_number: int):
        yield self.sim.timeout(self.config.batch_timeout)
        if self.crashed or epoch != chain.timer_epoch:
            return
        if (chain.cutter.has_pending
                and block_number == chain.next_block_number):
            self.tracer.instant(
                "order.batch_timeout", category="order", node=self.name,
                channel=chain.channel, block=block_number,
                pending=chain.cutter.pending_count)
            yield from self._submit_ttc(chain.channel, block_number)

    def _submit_ttc(self, channel: str, block_number: int
                    ) -> typing.Generator[typing.Any, typing.Any, None]:
        """Route a time-to-cut marker through consensus (backend-specific)."""
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Block assembly and delivery
    # ------------------------------------------------------------------

    def _emit_block(self, chain: ChannelChain,
                    batch: list[TransactionEnvelope]):
        """Assemble, sign, and deliver a block from ``batch``."""
        block = self._next_block(chain, batch)
        with self.tracer.span("order.block", category="order",
                              node=self.name) as span:
            span.annotate(block=block.number, channel=chain.channel,
                          txs=len(batch),
                          cutter_pending=chain.cutter.pending_count)
            yield from self.compute(self.costs.block_sign_cpu)
            self._sign(block)
            self._commit_block(chain, block)

    def _next_block(self, chain: ChannelChain,
                    batch: list[TransactionEnvelope]) -> Block:
        """Disarm the batch timer, then number and chain a block."""
        chain.timer_epoch += 1
        block = Block(number=chain.next_block_number,
                      previous_hash=chain.previous_hash,
                      transactions=tuple(batch), channel=chain.channel)
        chain.next_block_number += 1
        chain.previous_hash = block.header_hash()
        return block

    def _sign(self, block: Block) -> None:
        """Stamp the block with this OSN's signature and the cut time."""
        block.metadata.orderer = self.name
        block.metadata.signature = self.identity.sign(block.header_bytes())
        block.metadata.cut_at = self.sim.now

    def _commit_block(self, chain: ChannelChain, block: Block) -> None:
        """Count, record, deliver and acknowledge an ordered block."""
        chain.blocks_cut += 1
        if self.metrics_leader:
            metrics = self.context.metrics
            metrics.block_cut(len(block), self.name, channel=block.channel)
            for envelope in block.transactions:
                metrics.tx_ordered(envelope.tx_id)
        chain.delivered[block.number] = block
        for subscriber in chain.subscribers:
            self.send(subscriber, "block", block, size=block.wire_size())
        for envelope in block.transactions:
            client = self._pending_acks.pop(envelope.tx_id, None)
            if client is not None:
                self.send(client, "broadcast_ack", {"tx_id": envelope.tx_id})

    def _nack(self, envelope: TransactionEnvelope, reason: str) -> None:
        """Refuse an accepted envelope, so its client can resubmit at once."""
        client = self._pending_acks.pop(envelope.tx_id, None)
        if client is not None:
            self.send(client, "broadcast_nack",
                      {"tx_id": envelope.tx_id, "reason": reason})


class OrderingService:
    """Facade over one deployment: its OSNs, its machines and its leader."""

    kind = ""

    def __init__(self, context: NetworkContext, config: OrdererConfig,
                 channel: str | typing.Sequence[str],
                 identities: list[Identity]) -> None:
        config.validate()
        self.context = context
        self.config = config
        self.channels = _as_channel_list(channel)
        if not self.channels:
            raise ValueError(
                "an ordering service must serve at least one channel")
        self.channel = self.channels[0]
        self.nodes: list[OrderingServiceNode] = []
        self._build(identities)

    def _build(self, identities: list[Identity]) -> None:
        raise NotImplementedError

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    @property
    def node_names(self) -> list[str]:
        return [node.name for node in self.nodes]

    @property
    def machines(self) -> list[NodeBase]:
        """Every node of the deployment, its OSNs first."""
        return list(self.nodes)

    @property
    def leader(self) -> str | None:
        """The node ``@leader`` names: Solo's OSN (Raft, Kafka override)."""
        return self.nodes[0].name

    def osn_for(self, index: int) -> OrderingServiceNode:
        """Round-robin OSN assignment for clients and peers."""
        return self.nodes[index % len(self.nodes)]
