"""The combined peer ledger: block store + world state + history.

Commitment follows Fabric's rule (§II): both valid and invalid transactions
are recorded into the blockchain, while only valid transactions update the
world state.  The world state lives behind a pluggable
:class:`~repro.statedb.backend.StateBackend` (GoLevelDB- or CouchDB-like
cost model); each block's valid write sets are applied as one backend
commit batch, and periodic snapshots enable catch-up by snapshot + replay.
"""

from __future__ import annotations

import typing

from repro.common.errors import ValidationError
from repro.common.types import Block, ValidationCode
from repro.ledger.blockchain import BlockStore
from repro.ledger.history import HistoryDB
from repro.runtime.costs import CostModel
from repro.statedb.backend import CommittedWrite, StateBackend, committed_write
from repro.statedb.leveldb import LevelDBBackend
from repro.statedb.snapshot import Snapshot


class CommitPlan(typing.NamedTuple):
    """The peer-independent part of committing a block with given flags.

    Every peer on a channel commits the same block object, and every peer
    whose flags match commits it the same way, so the first such commit
    builds this plan and caches it on the block (:attr:`Block.commit_plan`)
    for the rest to reuse.  A commit with other flags builds its own plan,
    which replaces the cached one.
    """

    #: The validation flags the plan was built for.
    flags: tuple[ValidationCode, ...]
    #: Every transaction's id, valid or not, in block order.
    tx_ids: tuple[str, ...]
    #: How many transactions are valid.
    valid: int
    #: The valid transactions' writes in block order: one version tuple
    #: per transaction, one ``(value, version)`` entry per write.
    writes: tuple[CommittedWrite, ...]

    @classmethod
    def build(cls, block: Block,
              flags: tuple[ValidationCode, ...]) -> "CommitPlan":
        writes: list[CommittedWrite] = []
        valid = 0
        for tx_number, (tx, flag) in enumerate(
                zip(block.transactions, flags)):
            if flag is not ValidationCode.VALID:
                continue
            valid += 1
            version = (block.number, tx_number)
            writes.extend(committed_write(write, version, tx.tx_id)
                          for write in tx.rwset.writes)
        return cls(flags, tuple(tx.tx_id for tx in block.transactions),
                   valid, tuple(writes))


class Ledger:
    """One peer's ledger for one channel."""

    def __init__(self, channel: str,
                 backend: StateBackend | None = None) -> None:
        self.channel = channel
        self.blocks = BlockStore(channel)
        self.state = (backend if backend is not None
                      else LevelDBBackend(CostModel()))
        self.history = HistoryDB()
        # One record per block of the chain: a replay from genesis
        # replays the (empty) genesis block too.
        self.history.record(0, ())
        #: Snapshots taken on this ledger, oldest first (catch-up source).
        self.snapshots: list[Snapshot] = []
        self._committed_tx_ids: set[str] = set()
        self.valid_tx_count = 0
        self.invalid_tx_count = 0

    @property
    def height(self) -> int:
        return self.blocks.height

    @property
    def latest_snapshot(self) -> Snapshot | None:
        return self.snapshots[-1] if self.snapshots else None

    def has_transaction(self, tx_id: str) -> bool:
        """True iff a transaction with this id has ever been committed.

        Used by endorsers for check 2 of §II ("the transaction has not been
        submitted in the past") and by validators to flag DUPLICATE_TXID.
        """
        return tx_id in self._committed_tx_ids

    def commit_block(self, block: Block,
                     flags: typing.Sequence[ValidationCode] | None = None,
                     ) -> None:
        """Append ``block`` and apply the write sets of its valid txs.

        ``flags`` are this peer's verdicts, one per transaction; without
        them the flags in the block's metadata apply.  All valid write
        sets go to the state backend as a single commit batch, mirroring
        Fabric's one state-DB update batch per block (and enabling
        bulk-write modeling).  The per-transaction work is the block's
        :class:`CommitPlan`, shared with every peer that commits the same
        block with the same flags.
        """
        if flags is None:
            flags = block.metadata.validation_flags
        if len(flags) != len(block.transactions):
            raise ValidationError(
                f"block {block.number}: {len(flags)} validation flags for "
                f"{len(block.transactions)} transactions")
        key = tuple(flags)
        plan = block.commit_plan
        if plan is None or plan.flags != key:
            plan = block.commit_plan = CommitPlan.build(block, key)
        self.blocks.append(block)
        self._committed_tx_ids.update(plan.tx_ids)
        self.valid_tx_count += plan.valid
        self.invalid_tx_count += len(plan.tx_ids) - plan.valid
        self.history.record(block.number, plan.writes)
        self.state.commit_batch(plan.writes)

    def take_snapshot(self) -> Snapshot:
        """Snapshot the current state at the current height.

        The snapshot is cached on the last committed block
        (:attr:`Block.snapshot`), so every peer whose state equals it at
        this height adopts it instead of hashing the state again.  A peer
        with another state builds its own, which replaces the cached one.
        """
        block = self.blocks.last_block
        snap = block.snapshot = self.state.take_snapshot(
            self.height, block.snapshot)
        self.snapshots.append(snap)
        return snap

    def rebuild_state(self) -> tuple[int, int]:
        """Rebuild a lost state DB from the latest snapshot + block replay.

        Wipes the backend, restores the most recent snapshot (if any), and
        replays this peer's committed writes of every block past the
        snapshot height from its history records.  Returns ``(snapshot_height,
        replayed_blocks)`` — snapshot_height 0 means genesis replay.  The
        rebuild cost accrues on the backend; the caller drains and charges
        it on the simulation clock.
        """
        self.state.wipe()
        snap = self.latest_snapshot
        start_height = 0
        if snap is not None:
            self.state.restore_snapshot(snap)
            start_height = snap.manifest.height
        replayed = 0
        for writes in self.history.since(start_height):
            self.state.replay_writes(writes)
            replayed += 1
        return start_height, replayed
