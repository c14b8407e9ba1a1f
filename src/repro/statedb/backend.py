"""The pluggable state-database backend interface.

A :class:`StateBackend` wraps the in-memory :class:`WorldState` (the *data*
is identical across backends — only the cost model differs) and accrues the
simulated I/O cost of every operation into a pending-cost accumulator.
Callers on the simulation clock (endorser read path, validator/committer
write path, recovery catch-up) drain the accumulator with :meth:`drain_cost`
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

import dataclasses
import typing

from repro.common.types import KVWrite, Version
from repro.ledger.statedb import CommittedWrite, VersionedValue, WorldState
from repro.runtime.costs import CostModel
from repro.statedb import snapshot as snapshot_mod
from repro.statedb.cache import ReadCache


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
    """Cost-accruing facade over :class:`WorldState`.

    Subclasses implement the per-operation cost hooks; everything else —
    data semantics, cache coherence, bulk prefetch, snapshots, counters —
    is shared, so every backend preserves MVCC semantics exactly.
    """

    #: Backend kind name ("leveldb", "couchdb"); set by subclasses.
    kind = "abstract"

    def __init__(self, costs: CostModel, cache: ReadCache | None = None,
                 bulk: bool = False) -> None:
        self.costs = costs
        self.cache = cache
        self.bulk = bulk
        self.stats = BackendStats()
        self._store = WorldState()
        #: Read-set entries prefetched by :meth:`bulk_get` for the block
        #: currently being validated; served at zero cost, cleared on commit.
        self._prefetched: dict[str, VersionedValue | None] = {}
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

    def get(self, key: str) -> VersionedValue | None:
        """Current value+version of ``key``; accrues the read cost."""
        if key in self._prefetched:
            return self._prefetched[key]
        if self.cache is not None and key in self.cache:
            self.stats.cache_hits += 1
            return self.cache.lookup(key)
        entry = self._store.get(key)
        self.stats.reads += 1
        self._pending_cost += self._point_read_cost(self.costs)
        if self.cache is not None:
            self.stats.cache_misses += 1
            self.cache.insert(key, entry)
        return entry

    def get_version(self, key: str) -> Version | None:
        """Current version of ``key`` (same cost path as :meth:`get`)."""
        entry = self.get(key)
        return entry.version if entry is not None else None

    def range_scan(self, start_key: str,
                   end_key: str) -> list[tuple[str, VersionedValue]]:
        """All (key, value) with ``start_key <= key < end_key``, sorted."""
        result = self._store.range_scan(start_key, end_key)
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
            entry = self._store.get(key)
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
        stats = self.stats
        cache = self.cache
        stats.commit_batches += 1
        if batch:
            unknown = {write[0] for write in batch}.difference(
                self._prefetched)
            if cache is not None:
                unknown = {key for key in unknown if key not in cache}
            self._pending_cost += self._commit_cost(
                self.costs, len(batch), len(unknown), self.bulk)
            if self.kind == "couchdb":  # learns each unknown _rev first
                stats.revision_lookups += len(unknown)
            if self.bulk:
                stats.bulk_write_batches += 1
        deletes = self._store.apply_batch(batch)
        stats.deletes += deletes
        stats.writes += len(batch) - deletes
        if cache is not None:
            for key, entry, is_delete, _tx_id in batch:
                cache.update_if_present(
                    key, None if is_delete else VersionedValue(*entry))
        # The validated block is committed; its prefetched read set is spent.
        self._prefetched.clear()

    def apply_write(self, write: KVWrite, version: Version) -> None:
        """Apply one write out of band (test seeding, tooling); uncharged.

        Keeps the cache coherent but accrues no cost — in-band commits go
        through :meth:`commit_batch`.
        """
        self._store.apply_write(write, version)
        if self.cache is not None:
            entry = (None if write.is_delete
                     else VersionedValue(write.value, version))
            self.cache.update_if_present(write.key, entry)
        self._prefetched.pop(write.key, None)

    def apply_writes(self, writes: typing.Iterable[KVWrite],
                     version: Version) -> None:
        """Apply several out-of-band writes at one version; uncharged."""
        for write in writes:
            self.apply_write(write, version)

    # ------------------------------------------------------------------
    # Snapshots / catch-up
    # ------------------------------------------------------------------

    def take_snapshot(self, height: int,
                      shared: snapshot_mod.Snapshot | None = None,
                      ) -> snapshot_mod.Snapshot:
        """Serialize the current state as a snapshot at ``height``.

        ``shared`` is another peer's snapshot at this height, returned
        instead of a new one when the states are equal
        (:func:`~repro.statedb.snapshot.take`).  Either way this backend
        counts and charges the snapshot's I/O itself.
        """
        snap = snapshot_mod.take(self._store, height, shared)
        self.stats.snapshots_taken += 1
        self.stats.snapshot_bytes += snap.manifest.byte_size
        self._pending_cost += (snap.manifest.byte_size
                               * self.costs.snapshot_io_per_byte)
        return snap

    def restore_snapshot(self, snap: snapshot_mod.Snapshot) -> None:
        """Replace the whole state with ``snap``'s entries."""
        self.wipe()
        for key, (value, version) in snap.entries:
            self._store.apply_write(KVWrite(key=key, value=value), version)
        self.stats.restores += 1
        self._pending_cost += (snap.manifest.byte_size
                               * self.costs.snapshot_io_per_byte)

    def replay_writes(self, writes: typing.Sequence[CommittedWrite]) -> None:
        """Re-apply one block's writes during catch-up (charged as commit)."""
        self.stats.replayed_blocks += 1
        self.commit_batch(writes)
        self.stats.commit_batches -= 1  # replay is not a live commit batch

    def wipe(self) -> None:
        """Drop all state (crash with a volatile/corrupt state DB)."""
        self._store.clear()
        self._prefetched.clear()
        if self.cache is not None:
            self.cache.clear()

    # ------------------------------------------------------------------
    # Uncharged introspection (tests, reports, examples)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def peek(self, key: str) -> VersionedValue | None:
        """Read without accruing cost or touching the cache."""
        return self._store.get(key)

    def keys(self) -> list[str]:
        """All keys, sorted (uncharged introspection)."""
        return self._store.keys()

    def state_hash(self) -> str:
        """Digest of the full state (snapshot-consistency checks)."""
        return snapshot_mod.state_hash(tuple(self._store.items()))

    def __repr__(self) -> str:
        toggles = []
        if self.cache is not None:
            toggles.append("cache")
        if self.bulk:
            toggles.append("bulk")
        suffix = f" +{'+'.join(toggles)}" if toggles else ""
        return f"<{type(self).__name__} {len(self)} keys{suffix}>"
