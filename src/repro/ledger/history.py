"""History index: which transactions wrote each key, in commit order."""

from __future__ import annotations

import typing


class HistoryEntry(typing.NamedTuple):
    """One committed write to a key."""

    block_number: int
    tx_number: int
    tx_id: str
    is_delete: bool


#: A stored write: the four :class:`HistoryEntry` fields plus the key's
#: previous node, ``None`` for its first write.
_Node = tuple[int, int, str, bool, "_Node | None"]


class HistoryDB:
    """Per-key write history, equivalent to Fabric's history database.

    Each key's writes are a chain of plain tuples, newest first:
    ``(block_number, tx_number, tx_id, is_delete, previous)``.  Like the
    world state's entries (:class:`~repro.ledger.statedb.WorldState`),
    they leave the cyclic garbage collector's view, which a list never
    does; reads build :class:`HistoryEntry` views.
    """

    def __init__(self) -> None:
        self._history: dict[str, _Node] = {}

    def record(self, key: str, entry: HistoryEntry) -> None:
        self._history[key] = (*entry, self._history.get(key))

    def for_key(self, key: str) -> list[HistoryEntry]:
        """All writes to ``key`` in commit order (empty if never written)."""
        entries = []
        node = self._history.get(key)
        while node is not None:
            entries.append(HistoryEntry(*node[:4]))
            node = node[4]
        entries.reverse()
        return entries

    def last_write(self, key: str) -> HistoryEntry | None:
        node = self._history.get(key)
        return HistoryEntry(*node[:4]) if node is not None else None

    def __len__(self) -> int:
        return len(self._history)
