"""A deterministic LRU read cache for state-database backends.

Models the peer-side cache of Thakkar et al. ("Performance Benchmarking and
Optimizing Hyperledger Fabric", §V): endorsement and validation reads are
served from peer memory, and committed writes update the cached entries
(write-through), so the cache never serves stale versions to MVCC.

Entries are the store's own ``(value, version)`` tuples, or ``None`` — a
*negative* entry recording that the key is known absent (reads of missing
keys are common in write-mostly workloads and are exactly as expensive as
hits on CouchDB).
Eviction order is the insertion/recency order of a plain dict, so it is
fully deterministic.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.statedb.backend import StateEntry


class ReadCache:
    """Bounded LRU map of ``key -> (value, version) | None``."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[str, StateEntry | None] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def lookup(self, key: str) -> StateEntry | None:
        """The cached entry for ``key`` (which must be present); MRU-bumps."""
        value = self._entries.pop(key)
        self._entries[key] = value
        return value

    def insert(self, key: str, value: StateEntry | None) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.pop(key)
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = value

    def update_if_present(self, key: str,
                          value: StateEntry | None) -> None:
        """Write-through coherence: refresh ``key`` only if already cached.

        Keeps recency order unchanged — a committed write is not a *use* of
        the entry, so it must not protect the key from eviction.
        """
        if key in self._entries:
            self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()
