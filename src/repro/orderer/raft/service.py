"""Raft-based ordering service.

Fabric 1.4's Raft consenter cuts blocks at the *leader* OSN and replicates
whole blocks through the Raft log (unlike Kafka, which replicates individual
envelopes and lets every OSN cut deterministically).  We model exactly that:

- follower OSNs forward accepted envelopes to the current leader;
- the leader feeds its per-channel block cutter and, when a batch completes
  (BatchSize) or its BatchTimeout fires (the paper's "BatchTimeout Signal
  ... from the current leading node"), assembles and signs a block and
  proposes it as a Raft entry;
- every OSN delivers a block to its subscribed peers when the entry commits
  and applies, and acknowledges the clients whose envelopes it accepted;
- a freshly elected leader defers cutting until its term's no-op entry has
  applied, so block numbering continues from the last applied block.

The OSN base's front cuts, signs and commits the blocks; Raft changes only
where a signed block goes (its log) and when it commits (on apply).

Deviation from Fabric noted: Fabric runs one Raft instance per channel; we
order all channels through one shared Raft log (entries are blocks tagged
with their channel, numbering and cutting stay per-channel).  For the
paper's single-channel experiments the two are identical.
"""

from __future__ import annotations

import typing

from repro.common.config import OrdererConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Block, TransactionEnvelope
from repro.msp.identity import Identity
from repro.orderer.base import ChannelChain, OrderingService, OrderingServiceNode
from repro.orderer.raft.node import RaftNode
from repro.sim.network import Message


class RaftOSN(OrderingServiceNode):
    """An ordering service node with an embedded Raft consenter."""

    def __init__(self, context, name: str, config: OrdererConfig,
                 channel, identity: Identity, osn_names: list[str],
                 metrics_leader: bool = False) -> None:
        super().__init__(context, name, config, channel, identity,
                         metrics_leader=metrics_leader)
        self.raft = RaftNode(
            owner=self, peer_names=osn_names,
            election_timeout=config.raft_election_timeout,
            heartbeat_interval=config.raft_heartbeat_interval,
            apply_callback=self._apply_entry,
            on_leader_change=self._leader_changed)
        #: True once this term's no-op has applied and cutting may begin.
        self.leader_ready = False
        #: Envelopes accepted while leading but before the no-op applied.
        self._preterm_queue: list[TransactionEnvelope] = []
        self.on("raft_forward", self._handle_forward)

    def start(self) -> None:
        super().start()
        self.raft.start()

    def recover(self) -> None:
        """Rejoin the cluster after a fail-stop crash.

        The base recovery restores traffic; the Raft timers all died while
        crashed (each fires once and checks ``owner.crashed``), so the
        consenter must re-arm its election timer to rejoin as a follower.
        """
        super().recover()
        self.raft.on_recover()

    # ------------------------------------------------------------------
    # Envelope intake
    # ------------------------------------------------------------------

    def _submit(self, envelope: TransactionEnvelope):
        if self.raft.is_leader:
            yield from self._leader_enqueue(envelope)
        elif self.raft.leader_id is not None:
            self.send(self.raft.leader_id, "raft_forward", envelope,
                      size=envelope.wire_size())
        else:
            # No known leader (mid-election): tell the client immediately so
            # it can back off and resubmit rather than burn its full
            # ordering timeout discovering nothing happened.
            self._nack(envelope, "no leader")

    def _handle_forward(self, message: Message):
        if not self.raft.is_leader:
            if self.raft.leader_id is not None:
                self.send(self.raft.leader_id, "raft_forward",
                          message.payload, size=message.size)
            return
        yield from self.compute(self.costs.orderer_per_envelope_cpu)
        yield from self._leader_enqueue(message.payload)

    def _leader_enqueue(self, envelope: TransactionEnvelope):
        if not self.leader_ready:
            self._preterm_queue.append(envelope)
            return
        yield from self._consume_ordered(("tx", envelope))

    def _submit_ttc(self, channel: str, block_number: int):
        """BatchTimeout fired at the leader: cut whatever is pending."""
        if self.raft.is_leader:
            yield from self._consume_ordered(("ttc", (channel, block_number)))

    # ------------------------------------------------------------------
    # Block proposal through Raft
    # ------------------------------------------------------------------

    def _emit_block(self, chain: ChannelChain,
                    batch: list[TransactionEnvelope]):
        """Sign the cut block and propose it; it commits on apply."""
        block = self._next_block(chain, batch)
        with self.tracer.span("order.raft.propose", category="order",
                              node=self.name) as span:
            span.annotate(block=block.number, channel=chain.channel,
                          txs=len(batch))
            yield from self.compute(self.costs.block_sign_cpu)
            yield from self.compute(self.costs.raft_append_cpu)
            yield from self.compute(self.costs.consensus_fsync_io)
            self._sign(block)
            self.raft.propose(("block", block))

    # ------------------------------------------------------------------
    # Raft callbacks
    # ------------------------------------------------------------------

    def _leader_changed(self, leader: str | None) -> None:
        self.leader_ready = False
        if leader == self.name:
            # Continue numbering from the last applied block; anything the
            # old leader proposed but did not commit is gone.
            for chain in self.chains.values():
                chain.cutter.cut()  # discard stale pending envelopes

    def _apply_entry(self, payload: tuple[str, typing.Any]):
        kind, value = payload
        if kind == "noop":
            if self.raft.is_leader and value == self.raft.current_term:
                self.leader_ready = True
                self.context.metrics.runtime_event(
                    "raft.leader_ready", self.name, detail=f"term={value}")
                self._sync_chain_tails()
                if self._preterm_queue:
                    backlog, self._preterm_queue = self._preterm_queue, []
                    for envelope in backlog:
                        yield from self._leader_enqueue(envelope)
            return
        if kind != "block":
            raise ValueError(f"unknown raft entry kind {kind!r}")
        block: Block = value
        with self.tracer.span("order.raft.apply", category="order",
                              node=self.name) as span:
            span.annotate(block=block.number, channel=block.channel,
                          txs=len(block.transactions))
            yield from self.compute(self.costs.raft_append_cpu)
            self._commit_block(self.chains[block.channel], block)

    def _sync_chain_tails(self) -> None:
        """Continue each chain from its last applied block (new leaders)."""
        for chain in self.chains.values():
            if chain.delivered:
                block = next(reversed(chain.delivered.values()))
                chain.next_block_number = block.number + 1
                chain.previous_hash = block.header_hash()


class RaftOrderingService(OrderingService):
    """Facade building the Raft OSN cluster."""

    kind = "raft"

    def _build(self, identities: list[Identity]) -> None:
        if len(identities) != self.config.num_osns:
            raise ConfigurationError(
                f"raft needs {self.config.num_osns} OSN identities, "
                f"got {len(identities)}")
        osn_names = [identity.name for identity in identities]
        self.nodes = [
            RaftOSN(self.context, identity.name, self.config, self.channels,
                    identity, osn_names, metrics_leader=(index == 0))
            for index, identity in enumerate(identities)]

    @property
    def leader(self) -> str | None:
        for node in self.nodes:
            if node.raft.is_leader:  # type: ignore[attr-defined]
                return node.name
        return None
