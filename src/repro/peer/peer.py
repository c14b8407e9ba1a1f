"""The peer node: endorsement front-end + validation/commit back-end.

A peer may join multiple channels (§II: channels are private blockchain
subnets); it keeps one ledger and one validation pipeline per channel and
routes proposals and blocks by their channel field.
"""

from __future__ import annotations

import dataclasses

from repro.chaincode.base import Chaincode
from repro.chaincode.policy import EndorsementPolicy
from repro.chaincode.registry import ChaincodeRegistry
from repro.common.config import StateDBConfig
from repro.common.errors import ConfigurationError
from repro.common.types import Block, Proposal, ValidationCode
from repro.ledger.ledger import Ledger
from repro.msp.identity import Identity
from repro.msp.msp import MSP
from repro.peer.endorser import Endorser
from repro.peer.gossip import GossipService
from repro.peer.validator import BlockValidator
from repro.runtime.context import NetworkContext
from repro.runtime.node import NodeBase
from repro.sim.resources import Resource
from repro.statedb import build_backend


@dataclasses.dataclass
class ChannelState:
    """One joined channel's ledger and validation pipeline."""

    ledger: Ledger
    validator: BlockValidator


class PeerNode(NodeBase):
    """A Fabric peer: endorses (if endorsing) and validates/commits."""

    def __init__(self, context: NetworkContext, identity: Identity,
                 msp: MSP, is_endorsing: bool = True,
                 gossip_leader: bool = False,
                 statedb: StateDBConfig | None = None) -> None:
        super().__init__(context, identity.name,
                         cores=context.costs.peer_cores)
        self.identity = identity
        self.msp = msp
        self.is_endorsing = is_endorsing
        self.statedb_config = statedb if statedb is not None else (
            StateDBConfig())
        self.chaincodes = ChaincodeRegistry()
        self._channel_states: dict[str, ChannelState] = {}
        self.endorser: Endorser | None = (
            Endorser(self) if is_endorsing else None)
        self.gossip = GossipService(self, is_leader=gossip_leader)
        # The block store disk (separate from CPU).
        self.disk = Resource(self.sim, capacity=1,
                             name=f"{self.name}.disk")
        # The state database (LevelDB file / CouchDB connection); serial,
        # separate from the block-store disk so bottleneck attribution can
        # tell "appending blocks" apart from "state reads/writes".
        self.statedb = Resource(self.sim, capacity=1,
                                name=f"{self.name}.statedb")
        # tx_id -> client node to notify on commit.
        self._listeners: dict[str, str] = {}
        #: The OSN this peer's deliver stream comes from (redelivery source).
        self.deliver_source: str | None = None
        self.on("proposal", self._handle_proposal)
        self.on("block", self._handle_block)
        self.on("gossip_block", self._handle_gossip_block)
        self.on("register_listener", self._handle_register_listener)
        self.on("deregister_listener", self._handle_deregister_listener)

    # ------------------------------------------------------------------
    # Channel membership
    # ------------------------------------------------------------------

    def install_chaincode(self, chaincode: Chaincode) -> None:
        self.chaincodes.install(chaincode)

    def join_channel(self, channel: str, policy: EndorsementPolicy) -> None:
        """Join ``channel``: create its ledger and validation pipeline."""
        if channel in self._channel_states:
            raise ConfigurationError(
                f"{self.name} already joined {channel!r}")
        backend = build_backend(self.statedb_config, self.costs)
        ledger = Ledger(channel, backend=backend)
        self._channel_states[channel] = ChannelState(
            ledger=ledger,
            validator=BlockValidator(self, policy, ledger))

    def subscribe_to_orderer(self, osn_name: str,
                             channels: list[str] | None = None) -> None:
        """Open the deliver stream from an ordering service node."""
        self.deliver_source = osn_name
        self.send(osn_name, "deliver_subscribe",
                  {"channels": channels or self.channels})

    def request_redelivery(self, channel: str, number: int) -> None:
        """Ask the deliver source to resend one block (drop recovery).

        A no-op when the peer has no deliver stream (gossip-only peers get
        their blocks re-gossiped instead).
        """
        if self.deliver_source is None:
            return
        self.send(self.deliver_source, "deliver_resend",
                  {"channel": channel, "number": number})

    @property
    def channels(self) -> list[str]:
        return list(self._channel_states)

    @property
    def channel(self) -> str | None:
        """The first joined channel (single-channel convenience)."""
        return next(iter(self._channel_states), None)

    def _default_state(self) -> ChannelState | None:
        for state in self._channel_states.values():
            return state
        return None

    @property
    def ledger(self) -> Ledger | None:
        """The first joined channel's ledger (single-channel convenience)."""
        state = self._default_state()
        return state.ledger if state else None

    @property
    def validator(self) -> BlockValidator | None:
        """The first joined channel's validator (convenience)."""
        state = self._default_state()
        return state.validator if state else None

    def ledger_for(self, channel: str) -> Ledger | None:
        state = self._channel_states.get(channel)
        return state.ledger if state else None

    def validator_for(self, channel: str) -> BlockValidator | None:
        state = self._channel_states.get(channel)
        return state.validator if state else None

    # ------------------------------------------------------------------
    # State database charging / recovery
    # ------------------------------------------------------------------

    def charge_statedb(self, cost: float, operation: str):
        """Sub-generator: charge ``cost`` seconds on the state-DB resource.

        Callers accrue backend cost synchronously (see
        :meth:`~repro.statedb.backend.StateBackend.drain_cost`) and charge
        it here, under a ``statedb.<operation>`` span so bottleneck
        attribution can pin commit time on state-database operations.
        """
        if cost <= 0:
            return
        with self.tracer.span(f"statedb.{operation}", category="statedb",
                              node=self.name) as span:
            span.annotate(cost=round(cost, 9))
            yield from self.statedb.use(cost)

    def recover(self) -> None:
        """Bring the peer back; rebuild wiped state DBs before serving.

        With ``wipe_on_crash`` the state database does not survive the
        crash: each channel's backend is rebuilt from its latest snapshot
        plus block replay (or genesis replay without snapshots).  The data
        rebuild is immediate — the ledger is never observably inconsistent
        — while the rebuild *cost* occupies the statedb resource, so
        post-recovery commits queue behind the catch-up and the recovery
        curves reflect it.
        """
        super().recover()
        if not self.statedb_config.wipe_on_crash:
            return
        total_cost = 0.0
        for channel, state in self._channel_states.items():
            snapshot_height, replayed = state.ledger.rebuild_state()
            total_cost += state.ledger.state.drain_cost()
            source = (f"snapshot@{snapshot_height}" if snapshot_height
                      else "genesis")
            self.context.metrics.runtime_event(
                "statedb.catchup", self.name,
                f"{channel}: restored from {source}, "
                f"replayed {replayed} block(s)")
        if total_cost > 0:
            self.sim.process(self.charge_statedb(total_cost, "catchup"))

    # ------------------------------------------------------------------
    # Execute phase: endorsement
    # ------------------------------------------------------------------

    def _handle_proposal(self, message):
        proposal: Proposal = message.payload["proposal"]
        signature = message.payload["signature"]
        if proposal.channel not in self._channel_states:
            return
        if not self.is_endorsing or self.endorser is None:
            return
        response = yield from self.endorser.endorse(proposal, signature)
        size = 600 + (len(response.payload) if response.ok else 0)
        self.send(message.source, "proposal_response", response, size=size)

    # ------------------------------------------------------------------
    # Validate phase: blocks
    # ------------------------------------------------------------------

    def _handle_block(self, message):
        block: Block = message.payload
        self.gossip.on_block(block, from_orderer=True)
        self._accept_block(block)

    def _handle_gossip_block(self, message):
        block: Block = message.payload
        # Relay peers forward gossiped blocks onward to their children;
        # a leaf of the tree (every peer but the leader in flat gossip)
        # has none.
        self.gossip.on_block(block, from_orderer=False)
        self._accept_block(block)

    def _accept_block(self, block: Block) -> None:
        state = self._channel_states.get(block.channel)
        if state is not None:
            state.validator.submit_block(block)

    # ------------------------------------------------------------------
    # Commit events
    # ------------------------------------------------------------------

    def _handle_register_listener(self, message):
        tx_id = message.payload["tx_id"]
        self._listeners[tx_id] = message.source

    def _handle_deregister_listener(self, message):
        """Client withdrew a commit listener (timed-out attempt)."""
        self._listeners.pop(message.payload["tx_id"], None)

    @property
    def listener_count(self) -> int:
        """Registered commit listeners (leak detection in tests)."""
        return len(self._listeners)

    def notify_commit(self, tx_id: str, code: ValidationCode) -> None:
        """Called by a validator when a transaction commits."""
        listener = self._listeners.pop(tx_id, None)
        if listener is not None:
            self.send(listener, "commit_event",
                      {"tx_id": tx_id, "code": code})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        ledger = self.ledger
        return ledger.height if ledger else 0

    def __repr__(self) -> str:
        role = "endorsing" if self.is_endorsing else "committing"
        return f"<PeerNode {self.name} ({role}) height={self.height}>"
