"""The pluggable state-database backend: the peer's world state.

A :class:`StateBackend` holds the versioned key-value data (identical
across backends — only the cost model differs) and accrues the simulated
I/O cost of every operation into a pending-cost accumulator.  Callers on
the simulation clock (endorser read path, validator/committer write path,
recovery catch-up) drain the accumulator with :meth:`drain_cost`
immediately after a synchronous burst of data operations and charge it on
the peer's ``statedb`` resource.

The accrue-then-drain split keeps data operations synchronous (chaincode
execution and MVCC need plain function calls), while still putting the cost
on the clock where contention matters.  Because accrual and drain happen
inside one yield-free section, concurrent simulation processes can never
interleave between them, so costs are always charged to the process that
incurred them.

Thakkar-style optimization toggles live here, shared by all backends:

- ``cache``: a versioned LRU read cache (:mod:`repro.statedb.cache`); hits
  skip the backend entirely, committed writes update cached entries
  write-through so MVCC never sees a stale version;
- ``bulk``: :meth:`bulk_get` batches the read-set lookups of a whole block
  into one backend round trip, and :meth:`commit_batch` writes the block's
  write sets through the backend's bulk-update path.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from repro.common.types import KVWrite, Version
from repro.runtime.costs import CostModel
from repro.statedb import snapshot as snapshot_mod
from repro.statedb.cache import ReadCache

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
    :meth:`StateBackend.get`, :meth:`~StateBackend.peek` and
    :meth:`~StateBackend.range_scan` build around the stored tuple)."""

    value: bytes
    version: Version


@dataclasses.dataclass
class BackendStats:
    """Per-backend operation counters (exported via the metrics CSVs)."""

    reads: int = 0               # point reads served by the backing store
    writes: int = 0              # keys written (non-delete)
    deletes: int = 0
    range_scans: int = 0
    scanned_keys: int = 0
    bulk_read_batches: int = 0
    bulk_write_batches: int = 0
    commit_batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    revision_lookups: int = 0    # CouchDB _rev fetches ahead of writes
    snapshots_taken: int = 0
    snapshot_bytes: int = 0
    restores: int = 0
    replayed_blocks: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class StateBackend:
    """Cost-accruing versioned key-value store with range scans.

    Subclasses implement the per-operation cost hooks; everything else —
    data semantics, cache coherence, bulk prefetch, snapshots, counters —
    is shared, so every backend preserves MVCC semantics exactly.

    Every key carries the version (block number, tx number) of the
    transaction that last wrote it — the basis of MVCC validation.
    Deletions remove the key entirely (as LevelDB does); a read of a
    deleted key observes version ``None``, and MVCC treats "absent" as its
    own version.  A sorted key index is maintained incrementally
    (``bisect.insort`` on insert, bisect + delete on removal), so
    :meth:`range_scan` is O(log n + k) and :meth:`keys` is O(n).

    Entries are plain ``(value, version)`` tuples, and the store, the
    read cache and the prefetch buffer hold the same tuple objects; only
    the reads that return a value wrap one in :class:`VersionedValue`.
    CPython's cyclic garbage collector stops tracking an exact tuple whose
    items are all untracked, but never a ``NamedTuple`` or dataclass
    instance, and a peer keeps every key for the whole run.
    """

    #: Backend kind name ("leveldb", "couchdb"); set by subclasses.
    kind = "abstract"

    def __init__(self, costs: CostModel, cache: ReadCache | None = None,
                 bulk: bool = False) -> None:
        self.costs = costs
        self.cache = cache
        self.bulk = bulk
        self.stats = BackendStats()
        self._data: dict[str, StateEntry] = {}
        self._sorted_keys: list[str] = []
        #: Read-set entries prefetched by :meth:`bulk_get` for the block
        #: currently being validated; served at zero cost, cleared on commit.
        self._prefetched: dict[str, StateEntry | None] = {}
        self._pending_cost = 0.0

    # ------------------------------------------------------------------
    # Cost hooks (backend-specific)
    # ------------------------------------------------------------------
    # The state-DB cost contract, stated once: static functions of the
    # cost constants and operation counts.  The analytic phase model calls
    # them with its expected (fractional) per-block counts.

    @staticmethod
    def _point_read_cost(costs: CostModel) -> float:
        raise NotImplementedError

    @staticmethod
    def _scan_cost(costs: CostModel, num_keys: float) -> float:
        raise NotImplementedError

    @staticmethod
    def _bulk_read_cost(costs: CostModel, num_keys: float) -> float:
        raise NotImplementedError

    @staticmethod
    def _commit_cost(costs: CostModel, num_writes: float,
                     unknown_revisions: float, bulk: bool) -> float:
        """Cost of committing ``num_writes`` keys in one batch.

        ``unknown_revisions`` counts write keys whose current revision is
        not locally known (cache/prefetch miss) — CouchDB must look these
        up before writing; LevelDB ignores them.  ``bulk`` selects the
        backend's bulk-update path.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cost accrual / drain
    # ------------------------------------------------------------------

    @property
    def pending_cost(self) -> float:
        """Accrued, not-yet-charged simulated seconds of backend I/O."""
        return self._pending_cost

    def drain_cost(self) -> float:
        """Return and reset the accrued cost (charge it on the clock)."""
        cost, self._pending_cost = self._pending_cost, 0.0
        return cost

    # ------------------------------------------------------------------
    # Read path (endorsement, MVCC)
    # ------------------------------------------------------------------

    def _read(self, key: str) -> StateEntry | None:
        """The stored entry of ``key``, from the prefetch buffer, the cache
        or the store; accrues the read cost of a store read."""
        if key in self._prefetched:
            return self._prefetched[key]
        if self.cache is not None and key in self.cache:
            self.stats.cache_hits += 1
            return self.cache.lookup(key)
        entry = self._data.get(key)
        self.stats.reads += 1
        self._pending_cost += self._point_read_cost(self.costs)
        if self.cache is not None:
            self.stats.cache_misses += 1
            self.cache.insert(key, entry)
        return entry

    def get(self, key: str) -> VersionedValue | None:
        """Current value+version of ``key``; accrues the read cost."""
        entry = self._read(key)
        return VersionedValue(*entry) if entry is not None else None

    def get_version(self, key: str) -> Version | None:
        """Current version of ``key`` (same cost path as :meth:`get`)."""
        entry = self._read(key)
        return entry[1] if entry is not None else None

    def range_scan(self, start_key: str,
                   end_key: str) -> list[tuple[str, VersionedValue]]:
        """All (key, value) with ``start_key <= key < end_key``, sorted."""
        keys = self._sorted_keys
        lo = bisect.bisect_left(keys, start_key)
        hi = bisect.bisect_left(keys, end_key)
        result = [(key, VersionedValue(*self._data[key]))
                  for key in keys[lo:hi]]
        self.stats.range_scans += 1
        self.stats.scanned_keys += len(result)
        self._pending_cost += self._scan_cost(self.costs, len(result))
        return result

    def bulk_get(self, keys: typing.Iterable[str]) -> None:
        """Prefetch ``keys`` in one backend round trip (bulk read).

        Entries land in the prefetch buffer (and the cache, when enabled),
        so the subsequent per-key :meth:`get_version` calls of the MVCC scan
        are free.  Only keys not already locally known are fetched.
        """
        # A dict, not a set: first-seen order is the order the keys
        # enter the prefetch buffer and the cache's LRU.
        missing: dict[str, None] = {}
        for key in keys:
            if key in self._prefetched or key in missing:
                continue
            if self.cache is not None and key in self.cache:
                self.stats.cache_hits += 1
                self._prefetched[key] = self.cache.lookup(key)
                continue
            missing[key] = None
        if not missing:
            return
        self.stats.bulk_read_batches += 1
        self.stats.reads += len(missing)
        self._pending_cost += self._bulk_read_cost(self.costs, len(missing))
        for key in missing:
            entry = self._data.get(key)
            self._prefetched[key] = entry
            if self.cache is not None:
                self.stats.cache_misses += 1
                self.cache.insert(key, entry)

    # ------------------------------------------------------------------
    # Write path (commit)
    # ------------------------------------------------------------------

    def commit_batch(self, batch: typing.Sequence[CommittedWrite]) -> None:
        """Apply one block's committed writes as a single backend batch.

        The store keeps each write's ``(value, version)`` entry as given,
        so peers committing the same plan share the entries.
        """
        self.stats.commit_batches += 1
        self._commit(batch)

    def replay_writes(self, writes: typing.Sequence[CommittedWrite]) -> None:
        """Re-apply one block's writes during catch-up (charged as commit,
        counted as a replayed block rather than a live commit batch)."""
        self.stats.replayed_blocks += 1
        self._commit(writes)

    def _commit(self, batch: typing.Sequence[CommittedWrite]) -> None:
        """Charge ``batch`` as one backend write batch and apply it."""
        stats = self.stats
        if batch:
            unknown = {write[0] for write in batch}.difference(
                self._prefetched)
            cache = self.cache
            if cache is not None:
                unknown = {key for key in unknown if key not in cache}
            self._pending_cost += self._commit_cost(
                self.costs, len(batch), len(unknown), self.bulk)
            if self.kind == "couchdb":  # learns each unknown _rev first
                stats.revision_lookups += len(unknown)
            if self.bulk:
                stats.bulk_write_batches += 1
        deletes = self._apply(batch)
        stats.deletes += deletes
        stats.writes += len(batch) - deletes
        # The validated block is committed; its prefetched read set is spent.
        self._prefetched.clear()

    def _apply(self, batch: typing.Iterable[CommittedWrite]) -> int:
        """Store each write's entry as given, in order; uncharged.

        Keeps the key index and the cache coherent (a cached key takes
        the stored tuple, or a negative entry on delete).  Returns the
        number of deletes among the writes.
        """
        data = self._data
        sorted_keys = self._sorted_keys
        cache = self.cache
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
            if cache is not None:
                cache.update_if_present(key, None if is_delete else entry)
        return deletes

    def apply_write(self, write: KVWrite, version: Version) -> None:
        """Apply one write out of band (test seeding, tooling); uncharged.

        Keeps the cache coherent but accrues no cost — in-band commits go
        through :meth:`commit_batch`.
        """
        self.apply_writes((write,), version)

    def apply_writes(self, writes: typing.Iterable[KVWrite],
                     version: Version) -> None:
        """Apply several out-of-band writes at one version; uncharged."""
        batch = [committed_write(write, version) for write in writes]
        self._apply(batch)
        for write in batch:
            self._prefetched.pop(write[0], None)

    # ------------------------------------------------------------------
    # Snapshots / catch-up
    # ------------------------------------------------------------------

    def _entries(self) -> tuple[snapshot_mod.Entry, ...]:
        """Every ``(key, (value, version))`` entry in key order, as
        stored."""
        data = self._data
        return tuple([(key, data[key]) for key in self._sorted_keys])

    def take_snapshot(self, height: int,
                      shared: snapshot_mod.Snapshot | None = None,
                      ) -> snapshot_mod.Snapshot:
        """Serialize the current state as a snapshot at ``height``.

        ``shared`` is another peer's snapshot at this height, returned
        instead of a new one when the states are equal
        (:func:`~repro.statedb.snapshot.take`).  Either way this backend
        counts and charges the snapshot's I/O itself.
        """
        snap = snapshot_mod.take(self._entries(), height, shared)
        self.stats.snapshots_taken += 1
        self.stats.snapshot_bytes += snap.manifest.byte_size
        self._pending_cost += (snap.manifest.byte_size
                               * self.costs.snapshot_io_per_byte)
        return snap

    def restore_snapshot(self, snap: snapshot_mod.Snapshot) -> None:
        """Replace the whole state with ``snap``'s entries, stored as they
        are (they are immutable and shared across peers)."""
        self.wipe()
        self._apply((key, entry, False, "") for key, entry in snap.entries)
        self.stats.restores += 1
        self._pending_cost += (snap.manifest.byte_size
                               * self.costs.snapshot_io_per_byte)

    def wipe(self) -> None:
        """Drop all state (crash with a volatile/corrupt state DB)."""
        self._data.clear()
        self._sorted_keys.clear()
        self._prefetched.clear()
        if self.cache is not None:
            self.cache.clear()

    # ------------------------------------------------------------------
    # Uncharged introspection (tests, reports, examples)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def peek(self, key: str) -> VersionedValue | None:
        """Read without accruing cost or touching the cache."""
        entry = self._data.get(key)
        return VersionedValue(*entry) if entry is not None else None

    def keys(self) -> list[str]:
        """All keys, sorted (uncharged introspection)."""
        return list(self._sorted_keys)

    def state_hash(self) -> str:
        """Digest of the full state (snapshot-consistency checks)."""
        return snapshot_mod.state_hash(self._entries())

    def __repr__(self) -> str:
        toggles = []
        if self.cache is not None:
            toggles.append("cache")
        if self.bulk:
            toggles.append("bulk")
        suffix = f" +{'+'.join(toggles)}" if toggles else ""
        return f"<{type(self).__name__} {len(self)} keys{suffix}>"
