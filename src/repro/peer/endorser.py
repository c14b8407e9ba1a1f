"""The endorser: proposal checks, chaincode execution, response signing.

Implements the four endorsement checks of §II — the proposal is well-formed,
the transaction has not been submitted in the past, the signature is valid,
and the submitter is authorized to transact on the channel — then executes
the chaincode against the current world state to produce the read/write set,
and signs the response via ESCC.
"""

from __future__ import annotations

import typing

from repro.chaincode.base import ChaincodeError, ChaincodeStub
from repro.chaincode.system import ESCC
from repro.common.crypto import Signature
from repro.common.types import Proposal, ProposalResponse, response_bytes
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.peer.peer import PeerNode


class Endorser:
    """Per-peer endorsement engine with a bounded concurrency pool."""

    def __init__(self, peer: "PeerNode") -> None:
        self._peer = peer
        self._escc = ESCC(peer.identity)
        self._slots = Resource(peer.sim,
                               capacity=peer.costs.endorser_concurrency,
                               name=f"{peer.name}.endorser.slots")
        self.proposals_endorsed = 0
        self.proposals_rejected = 0

    @property
    def queue_length(self) -> int:
        return self._slots.queue_length

    @property
    def slots(self) -> Resource:
        """The endorsement concurrency pool (observability attachment)."""
        return self._slots

    def endorse(self, proposal: Proposal, signature: Signature):
        """Process one proposal; returns a :class:`ProposalResponse`.

        A generator (simulation process): occupies an endorsement slot,
        charges CPU, and waits out the chaincode container round trip.
        """
        peer = self._peer
        with peer.tracer.span("endorse", category="execute", node=peer.name,
                              tx_id=proposal.tx_id) as span:
            # On a monitored pool acquire() reports the measured queue wait
            # to the tracer, which lands on this span automatically.
            request = yield from self._slots.acquire()
            try:
                # CPU: checks 1-4, chaincode execution, ESCC signing.
                yield from peer.cpu.use(peer.costs.endorse_cpu)
                failure = self._check_proposal(proposal, signature)
                if failure is not None:
                    self.proposals_rejected += 1
                    span.annotate(outcome="rejected")
                    return failure
                # User chaincode runs in its Docker container: round-trip
                # latency without additional peer CPU.
                if peer.costs.chaincode_container_latency > 0:
                    yield peer.sim.timeout(
                        peer.costs.chaincode_container_latency)
                response = self._execute(proposal)
                # Chaincode ran synchronously against the state backend;
                # charge the accrued read cost on the state-DB resource
                # (drain happens before any yield, so the cost is ours).
                ledger = peer.ledger_for(proposal.channel)
                if ledger is not None:
                    yield from peer.charge_statedb(
                        ledger.state.drain_cost(), "read")
                if response.ok:
                    self.proposals_endorsed += 1
                else:
                    self.proposals_rejected += 1
                    span.annotate(outcome="failed")
                return response
            finally:
                self._slots.release(request)

    def _check_proposal(self, proposal: Proposal,
                        signature: Signature) -> ProposalResponse | None:
        """Checks 1-4 of §II; returns a failure response or None if OK."""
        peer = self._peer
        if not proposal.well_formed():
            return self._failure(proposal, "malformed proposal")
        ledger = peer.ledger_for(proposal.channel)
        if ledger is None:
            return self._failure(
                proposal, f"peer not joined to {proposal.channel!r}")
        if ledger.has_transaction(proposal.tx_id):
            return self._failure(proposal, "transaction already submitted")
        if not peer.msp.verify_signature(
                signature, proposal.bytes_to_sign(), peer.identity.msp_id):
            return self._failure(proposal, "bad client signature")
        if not peer.msp.is_channel_writer(proposal.channel,
                                          proposal.creator):
            return self._failure(
                proposal, f"{proposal.creator} may not write "
                f"{proposal.channel}")
        if proposal.chaincode not in peer.chaincodes:
            return self._failure(
                proposal, f"chaincode {proposal.chaincode!r} not installed")
        return None

    def _execute(self, proposal: Proposal) -> ProposalResponse:
        """Simulate the chaincode against current state; build the response.

        The chaincode always runs on this peer's own state, so its read
        cost accrues here.  When the result equals the one an earlier
        endorser of the proposal produced, the response reuses that rwset
        object and its signed bytes instead of digesting them again; a
        different result replaces them on the proposal.
        """
        peer = self._peer
        chaincode = peer.chaincodes.get(proposal.chaincode)
        ledger = peer.ledger_for(proposal.channel)
        stub = ChaincodeStub(ledger.state, proposal.tx_id,
                             proposal.creator)
        try:
            payload = chaincode.invoke(stub, proposal.function,
                                       list(proposal.args))
        except ChaincodeError as error:
            return self._failure(proposal, str(error))
        rwset = stub.build_rwset()
        endorsed = proposal.endorsed
        if (endorsed is not None and endorsed[1] == payload
                and endorsed[0] == rwset):
            rwset, _, signed = endorsed
        else:
            signed = response_bytes(proposal.tx_id, 200, rwset, payload)
            object.__setattr__(proposal, "endorsed",
                               (rwset, payload, signed))
        return ProposalResponse(
            tx_id=proposal.tx_id, endorser=peer.name, status=200,
            payload=payload, rwset=rwset,
            endorsement=self._escc.endorse(signed))

    def _failure(self, proposal: Proposal,
                 message: str) -> ProposalResponse:
        return ProposalResponse(
            tx_id=proposal.tx_id, endorser=self._peer.name, status=500,
            payload=b"", rwset=None, endorsement=None, message=message)
