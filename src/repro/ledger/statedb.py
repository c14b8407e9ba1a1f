"""The world state: a versioned key-value store.

Equivalent to Fabric's LevelDB state database.  Every key carries the version
(block number, tx number) of the transaction that last wrote it — the basis
of MVCC validation.
"""

from __future__ import annotations

import bisect
import typing

from repro.common.types import KVWrite, Version


#: A stored state entry: ``(value, version)``.
StateEntry = tuple[bytes, Version]

#: One committed write, as the ledger applies and records it:
#: ``(key, (value, version), is_delete, tx_id)``.  A commit plan
#: (:class:`~repro.ledger.ledger.CommitPlan`) builds each once per block,
#: and every peer that commits the block with the same flags stores that
#: same entry.  A delete's entry is never stored; the history reads its
#: version.
CommittedWrite = tuple[str, StateEntry, bool, str]


def committed_write(write: KVWrite, version: Version,
                    tx_id: str = "") -> CommittedWrite:
    """``write`` committed at ``version`` by transaction ``tx_id``."""
    return (write.key, (write.value, version), write.is_delete, tx_id)


class VersionedValue(typing.NamedTuple):
    """A stored value and the height at which it was written (a view that
    reads build around the stored tuple)."""

    value: bytes
    version: Version


class WorldState:
    """Versioned key-value store with range scans.

    Deletions remove the key entirely (as LevelDB does); a read of a deleted
    key observes version ``None``, and MVCC treats "absent" as its own
    version.

    A sorted key index is maintained incrementally (``bisect.insort`` on
    insert, bisect + delete on removal), so ``range_scan`` is
    O(log n + k) and ``keys`` is O(n) — not O(n log n) per call.

    Entries are stored as plain ``(value, version)`` tuples, and reads
    wrap them in :class:`VersionedValue`.  CPython's cyclic garbage
    collector stops tracking an exact tuple whose items are all
    untracked, but never a ``NamedTuple`` or dataclass instance, and a
    peer keeps every key for the whole run.
    """

    def __init__(self) -> None:
        self._data: dict[str, StateEntry] = {}
        self._sorted_keys: list[str] = []

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> VersionedValue | None:
        """The current value and version of ``key``, or None if absent."""
        entry = self._data.get(key)
        return VersionedValue(*entry) if entry is not None else None

    def get_version(self, key: str) -> Version | None:
        """The current version of ``key``, or None if absent."""
        entry = self._data.get(key)
        return entry[1] if entry is not None else None

    def apply_batch(self, batch: typing.Iterable[CommittedWrite]) -> int:
        """Apply committed writes in order, storing each entry as given.

        Returns the number of deletes among them.
        """
        data = self._data
        sorted_keys = self._sorted_keys
        deletes = 0
        for key, entry, is_delete, _tx_id in batch:
            if is_delete:
                deletes += 1
                if data.pop(key, None) is not None:
                    del sorted_keys[bisect.bisect_left(sorted_keys, key)]
            else:
                if key not in data:
                    bisect.insort(sorted_keys, key)
                data[key] = entry
        return deletes

    def apply_write(self, write: KVWrite, version: Version) -> None:
        """Apply one committed write at ``version``."""
        self.apply_batch((committed_write(write, version),))

    def apply_writes(self, writes: typing.Iterable[KVWrite],
                     version: Version) -> None:
        """Apply a whole committed write set at ``version``."""
        for write in writes:
            self.apply_write(write, version)

    def clear(self) -> None:
        """Drop every key (used when a wiped state DB is rebuilt)."""
        self._data.clear()
        self._sorted_keys.clear()

    def range_scan(self, start_key: str,
                   end_key: str) -> list[tuple[str, VersionedValue]]:
        """All (key, value) with ``start_key <= key < end_key``, sorted."""
        lo = bisect.bisect_left(self._sorted_keys, start_key)
        hi = bisect.bisect_left(self._sorted_keys, end_key)
        return [(key, VersionedValue(*self._data[key]))
                for key in self._sorted_keys[lo:hi]]

    def keys(self) -> list[str]:
        """All keys currently present, sorted."""
        return list(self._sorted_keys)

    def items(self) -> list[tuple[str, StateEntry]]:
        """All ``(key, (value, version))`` entries in key order, as stored
        (used by snapshots)."""
        return [(key, self._data[key]) for key in self._sorted_keys]
