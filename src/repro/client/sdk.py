"""The client node: the fabric-sdk-node equivalent.

Beyond the happy path (execute -> order -> wait for commit), the client
carries the robustness features a real SDK needs to survive faults:

- separate *endorsement* and *ordering* deadlines (historically one knob
  covered both, so a slow endorser ate the ordering budget);
- failover lists of anchor peers and orderers, rotated on failure;
- bounded resubmission with exponential backoff + deterministic jitter on
  retryable ordering failures ("ordering timeout" and the orderer's
  "no leader" nack during elections);
- commit-listener hygiene: a listener registered at the anchor peer is
  deregistered when an attempt fails, so peer listener maps stay bounded
  under sustained timeouts.
"""

from __future__ import annotations

import typing

from repro.chaincode.policy import EndorsementPolicy
from repro.common.errors import ConfigurationError
from repro.common.types import (
    Proposal,
    ProposalResponse,
    TransactionEnvelope,
    ValidationCode,
)
from repro.msp.identity import Identity
from repro.runtime.context import NetworkContext
from repro.runtime.node import NodeBase
from repro.sim.network import Message

#: Orderer nack reasons worth retrying (transient consensus states).
RETRYABLE_NACK_REASONS = frozenset({"no leader"})


def _as_name_list(value: str | typing.Sequence[str], what: str) -> list[str]:
    names = [value] if isinstance(value, str) else list(value)
    if not names:
        raise ConfigurationError(f"client needs at least one {what}")
    return names


class ClientNode(NodeBase):
    """An asynchronous SDK client submitting transactions end to end."""

    def __init__(self, context: NetworkContext, identity: Identity,
                 channel: str, policy: EndorsementPolicy,
                 anchor_peer: str | typing.Sequence[str],
                 orderer: str | typing.Sequence[str],
                 ordering_timeout: float = 3.0,
                 endorsement_timeout: float = 3.0,
                 max_resubmits: int = 0,
                 resubmit_backoff: float = 0.25,
                 resubmit_jitter: float = 0.5,
                 cohort: str = "") -> None:
        super().__init__(context, identity.name,
                         cores=context.costs.client_threads)
        self.identity = identity
        self.channel = channel
        self.policy = policy
        #: Cohort tag stamped on every submitted transaction's
        #: :class:`~repro.metrics.collector.TxRecord` ("" outside
        #: aggregated-population mode).
        self.cohort = cohort
        #: Failover lists; index 0 is the preferred endpoint and failures
        #: rotate to the next entry.
        self.anchor_peers = _as_name_list(anchor_peer, "anchor peer")
        self.orderers = _as_name_list(orderer, "orderer")
        self.ordering_timeout = ordering_timeout
        self.endorsement_timeout = endorsement_timeout
        self.max_resubmits = max_resubmits
        self.resubmit_backoff = resubmit_backoff
        self.resubmit_jitter = resubmit_jitter
        self._anchor_index = 0
        self._orderer_index = 0
        self._nonce = 0
        self._or_counter = 0
        # tx_id -> event fired by the matching proposal_response/commit/nack.
        self._response_waiters: dict[str, typing.Any] = {}
        self._response_buffers: dict[str, list[ProposalResponse]] = {}
        self._response_needed: dict[str, int] = {}
        self._commit_waiters: dict[str, typing.Any] = {}
        self._nack_waiters: dict[str, typing.Any] = {}
        self.submitted = 0
        self.committed = 0
        self.rejected = 0
        self.resubmissions = 0
        self.on("proposal_response", self._handle_proposal_response)
        self.on("commit_event", self._handle_commit_event)
        self.on("broadcast_ack", self._handle_broadcast_ack)
        self.on("broadcast_nack", self._handle_broadcast_nack)

    # ------------------------------------------------------------------
    # Failover endpoints
    # ------------------------------------------------------------------

    @property
    def anchor_peer(self) -> str:
        """The current anchor peer (rotates on failed attempts)."""
        return self.anchor_peers[self._anchor_index % len(self.anchor_peers)]

    @property
    def orderer(self) -> str:
        """The current orderer endpoint (rotates on failed attempts)."""
        return self.orderers[self._orderer_index % len(self.orderers)]

    def _fail_over(self) -> None:
        """Rotate to the next orderer and anchor peer."""
        if len(self.orderers) > 1:
            self._orderer_index += 1
        if len(self.anchor_peers) > 1:
            self._anchor_index += 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def invoke(self, chaincode: str, function: str,
               args: typing.Sequence[str], tx_size: int = 1) -> typing.Any:
        """Submit one transaction asynchronously; returns its process.

        The returned process resolves to ``(tx_id, outcome)`` where outcome
        is ``"committed"``, ``"invalid"`` (on-chain but flagged), or a
        rejection reason.
        """
        # Daemon + eager: the open-loop workload discards the handle (a
        # joiner that does yield it still works, see Simulation.process),
        # and starting at spawn keeps per-client FIFO order while skipping
        # the init pop.
        return self.sim.process(
            self._transaction_flow(chaincode, function, tuple(args),
                                   tx_size),
            daemon=True, eager=True)

    # ------------------------------------------------------------------
    # The transaction flow
    # ------------------------------------------------------------------

    def _transaction_flow(self, chaincode: str, function: str,
                          args: tuple[str, ...], tx_size: int):
        metrics = self.context.metrics
        self._nonce += 1
        nonce = self._nonce
        tx_id = Proposal.compute_tx_id(self.name, nonce)
        proposal = Proposal(tx_id=tx_id, channel=self.channel,
                            chaincode=chaincode, function=function,
                            args=args, creator=self.name, nonce=nonce,
                            tx_size=tx_size)
        metrics.tx_submitted(tx_id, cohort=self.cohort,
                             channel=self.channel)
        self.submitted += 1

        attempts_left = self.max_resubmits
        attempt = 0
        good: list[ProposalResponse] | None = None
        while True:
            # --- Execute phase -------------------------------------------
            if good is None:
                failure, good = yield from self._execute_phase(
                    proposal, tx_id)
                if good is None:
                    failure = typing.cast(str, failure)
                    if (failure == "endorsement timeout"
                            and attempts_left > 0):
                        attempts_left -= 1
                        attempt += 1
                        self._note_resubmit(tx_id)
                        yield from self._retry_backoff(attempt)
                        continue
                    metrics.tx_rejected(tx_id, failure)
                    self.rejected += 1
                    return tx_id, failure
                metrics.tx_endorsed(tx_id)

            # --- Order phase ---------------------------------------------
            outcome = yield from self._order_phase(
                tx_id, chaincode, good, tx_size, attempt)
            if outcome in ("committed", "invalid"):
                return tx_id, outcome
            retryable = (outcome == "ordering timeout"
                         or _nack_reason(outcome) in RETRYABLE_NACK_REASONS)
            if not retryable or attempts_left <= 0:
                metrics.tx_rejected(tx_id, outcome)
                self.rejected += 1
                return tx_id, outcome
            attempts_left -= 1
            attempt += 1
            self._note_resubmit(tx_id)
            self._fail_over()
            yield from self._retry_backoff(attempt)

    def _execute_phase(self, proposal: Proposal, tx_id: str):
        """One endorsement round; returns (failure, good_responses)."""
        with self.tracer.span("client.execute", category="execute",
                              node=self.name, tx_id=tx_id) as span:
            yield from self.cpu.use(self.costs.client_prep_cpu)
            if self.costs.sdk_base_latency > 0:
                yield self.sim.timeout(self.costs.sdk_base_latency)
            targets = sorted(self.policy.select_targets(self._choose))
            if not targets:
                span.annotate(outcome="no endorsers")
                return "no endorsers", None
            signature = self.identity.sign(proposal.bytes_to_sign())
            responses = yield from self._gather_endorsements(
                proposal, signature, targets)
            good = [r for r in responses if r.ok]
            failure = self._endorsement_failure(good, targets, responses)
            if failure is not None:
                span.annotate(outcome=failure)
                return failure, None
            return None, good

    def _order_phase(self, tx_id: str, chaincode: str,
                     good: list[ProposalResponse], tx_size: int,
                     attempt: int):
        """One broadcast attempt; returns the attempt's outcome string."""
        with self.tracer.span("client.order_wait", category="order",
                              node=self.name, tx_id=tx_id) as span:
            if attempt:
                span.annotate(attempt=attempt)
            yield from self.cpu.use(self.costs.client_submit_cpu)
            envelope = TransactionEnvelope(
                tx_id=tx_id, channel=self.channel, chaincode=chaincode,
                creator=self.name, rwset=good[0].rwset,
                endorsements=tuple(r.endorsement for r in good),
                response_bytes=good[0].response_bytes(), tx_size=tx_size)
            commit_event = self.sim.event()
            nack_event = self.sim.event()
            self._commit_waiters[tx_id] = commit_event
            self._nack_waiters[tx_id] = nack_event
            anchor = self.anchor_peer
            span.annotate(anchor=anchor)
            self.send(anchor, "register_listener", {"tx_id": tx_id})
            self.send(self.orderer, "broadcast", envelope,
                      size=envelope.wire_size())
            self.context.metrics.tx_broadcast(tx_id)

            # --- Wait for commit, a nack, or the ordering timeout ----------
            deadline = self.sim.timeout(self.ordering_timeout)
            result = yield self.sim.any_of(
                [commit_event, nack_event, deadline])
            self._commit_waiters.pop(tx_id, None)
            self._nack_waiters.pop(tx_id, None)
            if commit_event in result:
                code: ValidationCode = commit_event.value
                if code is ValidationCode.VALID:
                    self.committed += 1
                    span.annotate(outcome="committed")
                    return "committed"
                span.annotate(outcome="invalid")
                return "invalid"
            # The attempt failed: withdraw the commit listener so the
            # anchor peer's listener map stays bounded.
            self.send(anchor, "deregister_listener", {"tx_id": tx_id})
            if nack_event in result:
                outcome = f"orderer nack: {nack_event.value}"
            else:
                outcome = "ordering timeout"
            span.annotate(outcome=outcome)
            return outcome

    def _note_resubmit(self, tx_id: str) -> None:
        self.resubmissions += 1
        self.context.metrics.tx_resubmitted(tx_id)

    def _retry_backoff(self, attempt: int):
        """Exponential backoff with deterministic per-client jitter."""
        base = self.resubmit_backoff * (2 ** (attempt - 1))
        delay = self.context.rng.jittered(
            f"client.retry.{self.name}", base, self.resubmit_jitter)
        if delay > 0:
            yield self.sim.timeout(delay)

    def _choose(self, options: int) -> int:
        """OR-branch chooser: round-robin across alternatives."""
        index = self._or_counter % options
        self._or_counter += 1
        return index

    def _gather_endorsements(self, proposal: Proposal, signature,
                             targets: list[str]):
        """Send the proposal to every target and collect the responses."""
        tx_id = proposal.tx_id
        gathered = self.sim.event()
        self._response_waiters[tx_id] = gathered
        self._response_buffers[tx_id] = []
        self._response_needed[tx_id] = len(targets)
        for target in targets:
            self.send(target, "proposal",
                      {"proposal": proposal, "signature": signature},
                      size=700 + proposal.tx_size)
        deadline = self.sim.timeout(self.endorsement_timeout)
        yield self.sim.any_of([gathered, deadline])
        responses = self._response_buffers.pop(tx_id, [])
        self._response_waiters.pop(tx_id, None)
        self._response_needed.pop(tx_id, None)
        # Collection cost: per-response CPU plus SDK pipeline latency.
        if responses:
            yield from self.cpu.use(
                self.costs.client_collect_cpu)
            extra = self.costs.sdk_per_endorsement_latency * len(responses)
            if extra > 0:
                yield self.sim.timeout(extra)
        return responses

    @staticmethod
    def _endorsement_failure(good: list[ProposalResponse],
                             targets: list[str],
                             all_responses: list[ProposalResponse]
                             ) -> str | None:
        if len(all_responses) < len(targets):
            return "endorsement timeout"
        if len(good) < len(targets):
            bad = next(r for r in all_responses if not r.ok)
            return f"endorsement failed: {bad.message}"
        reference = good[0].rwset.digest()
        if any(r.rwset.digest() != reference for r in good[1:]):
            return "endorsements disagree"
        return None

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def _handle_proposal_response(self, message: Message):
        response: ProposalResponse = message.payload
        buffer = self._response_buffers.get(response.tx_id)
        if buffer is None:
            return  # response after timeout; drop
        buffer.append(response)
        if len(buffer) >= self._response_needed[response.tx_id]:
            waiter = self._response_waiters.get(response.tx_id)
            if waiter is not None and not waiter.triggered:
                waiter.succeed()

    def _handle_commit_event(self, message: Message):
        tx_id = message.payload["tx_id"]
        code: ValidationCode = message.payload["code"]
        metrics = self.context.metrics
        metrics.tx_validated(tx_id, code)
        metrics.tx_committed(tx_id)
        waiter = self._commit_waiters.get(tx_id)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(code)

    def _handle_broadcast_ack(self, message: Message):
        """Ordered; the attempt waits for the commit event, not this ack."""

    def _handle_broadcast_nack(self, message: Message):
        """A nack fails the pending attempt fast (no 3 s timeout wait).

        The transaction flow decides whether the reason is retryable; a
        nack for an attempt no longer waiting is simply dropped.
        """
        waiter = self._nack_waiters.get(message.payload["tx_id"])
        if waiter is not None and not waiter.triggered:
            waiter.succeed(message.payload["reason"])


def _nack_reason(outcome: str) -> str:
    """The raw reason from an ``"orderer nack: <reason>"`` outcome."""
    prefix = "orderer nack: "
    return outcome[len(prefix):] if outcome.startswith(prefix) else ""
