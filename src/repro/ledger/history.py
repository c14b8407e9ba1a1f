"""History index: which transactions wrote each key, in commit order."""

from __future__ import annotations

import typing

from repro.statedb.backend import CommittedWrite


class HistoryEntry(typing.NamedTuple):
    """One committed write to a key."""

    block_number: int
    tx_number: int
    tx_id: str
    is_delete: bool


class HistoryDB:
    """Per-key write history, equivalent to Fabric's history database.

    One plain-tuple record per committed block, ``(block_number,
    writes)``: the block's valid writes in commit order, the same tuple
    for every peer that commits the block with the same flags (its
    :class:`~repro.ledger.ledger.CommitPlan`).  Nothing reads the history
    during a run, so queries scan the records and build
    :class:`HistoryEntry` views on demand.  The records also replay a lost
    state (:meth:`~repro.ledger.ledger.Ledger.rebuild_state`).
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[int, tuple[CommittedWrite, ...]]] = []

    def record(self, block_number: int,
               writes: tuple[CommittedWrite, ...]) -> None:
        """Record the valid writes of committed block ``block_number``."""
        self._blocks.append((block_number, writes))

    def since(self, height: int) -> list[tuple[CommittedWrite, ...]]:
        """The writes of each recorded block numbered ``height`` or above,
        one tuple per block in commit order."""
        return [writes for number, writes in self._blocks if number >= height]

    def for_key(self, key: str) -> list[HistoryEntry]:
        """All writes to ``key`` in commit order (empty if never written)."""
        return [HistoryEntry(version[0], version[1], tx_id, is_delete)
                for _number, writes in self._blocks
                for write_key, (_value, version), is_delete, tx_id in writes
                if write_key == key]

    def last_write(self, key: str) -> HistoryEntry | None:
        entries = self.for_key(key)
        return entries[-1] if entries else None

    def __len__(self) -> int:
        """The number of keys ever written."""
        return len({write[0] for _number, writes in self._blocks
                    for write in writes})
