"""The validate phase: VSCC endorsement-policy checks, MVCC, and commit.

This is the paper's bottleneck, and the pipeline mirrors Fabric 1.4:

1. verify the orderer's signature on the block;
2. VSCC per transaction — verify every endorsement signature and evaluate
   the endorsement policy.  Transactions within a block are checked by a
   bounded pool of validator workers in parallel; the CPU cost grows with
   the number of endorsements, which is why AND policies validate slower
   than OR;
3. MVCC — a *serial* scan deciding read-conflict validity in block order
   (serial because each decision depends on the writes of earlier valid
   transactions);
4. commit — append the block, apply valid write sets (disk I/O), and emit
   commit events.
"""

from __future__ import annotations

import typing

from repro.chaincode.policy import EndorsementPolicy
from repro.chaincode.system import VSCC
from repro.common.types import Block, TransactionEnvelope, ValidationCode
from repro.ledger.ledger import Ledger
from repro.obs.tracer import NULL_SPAN
from repro.sim.core import Process
from repro.sim.events import Timeout
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.peer.peer import PeerNode


def check_mvcc(ledger: Ledger, block: Block,
               flags: list[ValidationCode]) -> list[ValidationCode]:
    """Serial MVCC validation of ``block`` against ``ledger``'s state.

    ``flags`` carries the VSCC verdicts; only VSCC-valid transactions are
    checked.  A transaction is invalidated if any key it read has a version
    different from the current state version, or was written by an earlier
    valid transaction in the same block, or if its tx id duplicates a
    committed transaction (§II: MVCC prevents double-spending and replays).
    Returns the final per-transaction flags.

    The backend reads run in block order and, within a transaction, in
    read-set order, stopping at its first conflict: each one accrues this
    peer's read cost and touches its cache's LRU order.
    """
    valid = ValidationCode.VALID
    conflict = ValidationCode.MVCC_READ_CONFLICT
    committed = ledger.has_transaction
    get_version = ledger.state.get_version
    final_flags: list[ValidationCode] = []
    updated_in_block: set[str] = set()
    seen_tx_ids: set[str] = set()
    for envelope, flag in zip(block.transactions, flags):
        if flag is not valid:
            final_flags.append(flag)
            continue
        tx_id = envelope.tx_id
        rwset = envelope.rwset
        if tx_id in seen_tx_ids or committed(tx_id):
            flag = ValidationCode.DUPLICATE_TXID
        else:
            for read in rwset.reads:
                key = read.key
                if (key in updated_in_block
                        or get_version(key) != read.version):
                    flag = conflict
                    break
        final_flags.append(flag)
        seen_tx_ids.add(tx_id)
        if flag is valid:
            updated_in_block.update([write.key for write in rwset.writes])
    return final_flags


class BlockValidator:
    """Per-(peer, channel) validation pipeline with in-order commit."""

    #: Seconds a height gap may persist before re-requesting the block.
    REDELIVER_TIMEOUT = 1.0
    #: Re-request attempts per gap before giving up (bounds the event loop
    #: when the deliver source is permanently gone).
    MAX_REDELIVER_ATTEMPTS = 30

    def __init__(self, peer: "PeerNode", policy: EndorsementPolicy,
                 ledger: Ledger) -> None:
        self._peer = peer
        self.policy = policy
        self.ledger = ledger
        self._vscc = VSCC(peer.msp)
        self._workers = Resource(
            peer.sim, capacity=peer.costs.validator_workers,
            name=f"{peer.name}.{ledger.channel}.validator.workers")
        # Blocks must commit in order; out-of-order arrivals wait here.
        self._pending: dict[int, Block] = {}
        self._committing = False
        self._gap_epoch = 0
        self.blocks_validated = 0
        self.blocks_dropped = 0
        self.redelivery_requests = 0

    @property
    def backlog(self) -> int:
        return len(self._pending)

    @property
    def workers(self) -> Resource:
        """The VSCC worker pool (observability attachment)."""
        return self._workers

    def submit_block(self, block: Block) -> None:
        """Accept a block from the deliver/gossip path (idempotent)."""
        if block.number < self.ledger.height:
            return  # duplicate of an already-committed block
        if block.number in self._pending:
            return
        self._pending[block.number] = block
        if not self._committing:
            self._peer.sim.process(self._drain(), daemon=True)

    def _drain(self):
        self._committing = True
        try:
            while self.ledger.height in self._pending:
                block = self._pending.pop(self.ledger.height)
                yield from self._validate_and_commit(block)
        finally:
            self._committing = False
            self._watch_gap()

    # ------------------------------------------------------------------
    # Drop recovery
    # ------------------------------------------------------------------

    def _watch_gap(self) -> None:
        """Arm a watcher when pending blocks are stuck ahead of a gap.

        A block can go missing from the deliver stream (dropped in the
        network while the peer or link was down, or discarded as forged);
        later blocks then queue in ``_pending`` forever because commits are
        strictly in order.  The watcher re-requests the missing height from
        the deliver path after :attr:`REDELIVER_TIMEOUT` and re-arms while
        the gap persists.
        """
        self._gap_epoch += 1
        if not self._pending or self._committing:
            return
        if self.ledger.height in self._pending:
            return  # drain is about to pick it up
        if self._peer.deliver_source is None:
            return  # nowhere to re-request from (gossip-only peer)
        self._peer.sim.process(
            self._gap_watcher(self._gap_epoch, self.ledger.height, 0))

    def _gap_watcher(self, epoch: int, height: int, attempts: int):
        yield self._peer.sim.timeout(self.REDELIVER_TIMEOUT)
        if epoch != self._gap_epoch or self._committing:
            return  # progress was made (or another watcher armed)
        if self.ledger.height != height or not self._pending:
            return
        if height in self._pending:
            return
        if attempts >= self.MAX_REDELIVER_ATTEMPTS:
            return
        self.redelivery_requests += 1
        self._peer.request_redelivery(self.ledger.channel, height)
        # Re-arm: keep asking until the gap closes (the deliver source
        # itself may still be electing or recovering).
        self._gap_epoch += 1
        self._peer.sim.process(
            self._gap_watcher(self._gap_epoch, height, attempts + 1))

    def _validate_and_commit(self, block: Block):
        # The serial sections (signature check, MVCC, commit) belong to the
        # committer, which is accounted as occupying one validator worker:
        # blocks drain strictly serially, so the slot is always free at
        # those points and the accounting adds zero simulated time, but the
        # pool's utilization then measures the busy fraction of the whole
        # validate pipeline instead of just its parallel VSCC section.
        peer = self._peer
        tracer = peer.tracer
        with tracer.span("validate.block", category="validate",
                         node=peer.name) as span:
            span.annotate(block=block.number, channel=block.channel,
                          txs=len(block.transactions))
            # 1. Orderer signature on the block header.
            committer = self._workers.request()
            try:
                # The grant wait sits inside the try: an interrupt at
                # this yield must still hand the (queued or granted)
                # slot back, or the worker pool shrinks for good.
                yield committer
                yield from peer.cpu.use(peer.costs.block_verify_cpu)
            finally:
                self._workers.release(committer)
            signature = block.metadata.signature
            if signature is None or not peer.msp.verify_signature(
                    signature, block.header_bytes(), peer.identity.msp_id):
                # Forged block: drop it entirely.  The height stays put, so
                # ask the deliver path to resend the genuine block at this
                # number — otherwise every later block wedges in _pending.
                span.annotate(outcome="forged")
                self.blocks_dropped += 1
                if peer.deliver_source is not None:
                    self.redelivery_requests += 1
                    peer.request_redelivery(block.channel, block.number)
                return
            # 2. VSCC in parallel across the worker pool (the committer
            #    slot is released so every worker can serve VSCC jobs).
            transactions = block.transactions
            flags: list[ValidationCode | None] = [None] * len(transactions)
            # Eager spawn: each job claims its worker slot at spawn, in
            # list order — the same FIFO order the init pops would give —
            # and enters its span there, inside its own process.  The
            # spans are built only when tracing; otherwise every job gets
            # the shared no-op span.
            sim = peer.sim
            vscc_one = self._vscc_one
            traced = bool(tracer)
            node = peer.name
            jobs = [Process(sim, vscc_one(
                        envelope, flags, index,
                        tracer.span("validate.vscc", category="validate",
                                    node=node, tx_id=envelope.tx_id)
                        if traced else NULL_SPAN), eager=True)
                    for index, envelope in enumerate(transactions)]
            if jobs:
                yield sim.all_of(jobs)
            vscc_flags = typing.cast("list[ValidationCode]", flags)
            backend = self.ledger.state
            read_cost = 0.0
            committer = self._workers.request()
            try:
                yield committer
                # 3. Serial MVCC in block order.  With bulk reads enabled,
                #    the whole read set is prefetched in one backend round
                #    trip; otherwise each get_version is a point read.
                #    Backend costs are drained immediately after each
                #    yield-free accrual section (see StateBackend docs).
                if backend.bulk:
                    backend.bulk_get(
                        read.key
                        for envelope, flag in zip(block.transactions,
                                                  vscc_flags)
                        if flag is ValidationCode.VALID
                        for read in envelope.rwset.reads)
                    read_cost += backend.drain_cost()
                with tracer.span("validate.mvcc", category="validate",
                                 node=peer.name):
                    if block.transactions:
                        yield from peer.cpu.use(
                            peer.costs.mvcc_per_tx_cpu
                            * len(block.transactions))
                    final_flags = check_mvcc(self.ledger, block, vscc_flags)
                    read_cost += backend.drain_cost()
                # Every peer holds this same block object: the metadata
                # copy is for readers of the chain, and this peer commits
                # its own final_flags below.
                block.metadata.validation_flags = final_flags
                # 4a. Commit: block-store append (disk).
                with tracer.span("validate.commit", category="validate",
                                 node=peer.name):
                    yield from peer.disk.use(peer.costs.commit_per_block_io)
            finally:
                self._workers.release(committer)
            # 4b. State-database update: the block's valid write sets go to
            #     the backend as one commit batch; its cost (plus the MVCC
            #     read cost) is charged on the serial statedb resource.
            #     Blocks drain strictly serially, so charging outside the
            #     worker slot keeps ordering while letting bottleneck
            #     attribution separate state-DB time from VSCC time.
            yield from peer.charge_statedb(read_cost, "read")
            self.ledger.commit_block(block, final_flags)
            yield from peer.charge_statedb(backend.drain_cost(), "commit")
            self.blocks_validated += 1
            # Clients register commit listeners only with their anchor
            # peers, so most peers hold none.
            if peer.listener_count:
                for envelope, flag in zip(block.transactions, final_flags):
                    peer.notify_commit(envelope.tx_id, flag)
            interval = peer.statedb_config.snapshot_interval
            if interval > 0 and self.ledger.height % interval == 0:
                self.ledger.take_snapshot()
                yield from peer.charge_statedb(
                    backend.drain_cost(), "snapshot")

    def _vscc_one(self, envelope: TransactionEnvelope,
                  flags: list[ValidationCode | None], index: int,
                  span: typing.ContextManager[typing.Any]):
        # One job per (peer, transaction), so the worker claim and the CPU
        # charge are written out here rather than run as acquire()/use()
        # sub-generators: the same events (the worker grant, then the
        # CPU grant only if the claim queued, then the CPU service).
        peer = self._peer
        workers = self._workers
        cpu = peer.cpu
        with span:
            request = workers.request()
            try:
                # An exception at the grant yield hands back the granted
                # slot, or cancels the queued claim.
                yield request
                if workers.monitor is not None:
                    # Lands on this span as its queue wait.
                    workers.report_wait(request)
                held = cpu.claim()
                try:
                    if not held.triggered:
                        yield held
                        if cpu.monitor is not None:
                            cpu.report_wait(held)
                    yield Timeout(peer.sim, peer.costs.vscc_tx_cpu(
                        len(envelope.endorsements)))
                finally:
                    cpu.release(held)
                flags[index] = self._vscc.validate(envelope, self.policy)
            finally:
                workers.release(request)
