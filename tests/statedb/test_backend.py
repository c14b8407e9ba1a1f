"""Tests for the pluggable state-database backends and their cost models."""

import ast
import pathlib

import pytest

import repro.statedb
from repro.common.config import StateDBConfig
from repro.common.errors import ConfigurationError
from repro.common.types import KVWrite
from repro.runtime.costs import CostModel
from repro.statedb import (
    CouchDBBackend,
    LevelDBBackend,
    ReadCache,
    VersionedValue,
    build_backend,
)
from repro.statedb.backend import committed_write

COSTS = CostModel()


def leveldb(**kwargs) -> LevelDBBackend:
    return LevelDBBackend(COSTS, **kwargs)


def couchdb(**kwargs) -> CouchDBBackend:
    return CouchDBBackend(COSTS, **kwargs)


def committed(pairs):
    """A commit batch of ``(write, version)`` pairs."""
    return [committed_write(write, version) for write, version in pairs]


def seed(backend, *keys: str) -> None:
    backend.apply_writes([KVWrite(k, k.encode()) for k in keys],
                         version=(1, 0))


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------

def test_build_backend_dispatches_on_kind():
    assert isinstance(
        build_backend(StateDBConfig(kind="leveldb"), COSTS), LevelDBBackend)
    couch = build_backend(
        StateDBConfig(kind="couchdb", cache=True, bulk=True), COSTS)
    assert isinstance(couch, CouchDBBackend)
    assert couch.cache is not None
    assert couch.bulk


def test_build_backend_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        build_backend(StateDBConfig(kind="rocksdb"), COSTS)


# ----------------------------------------------------------------------
# Cost accrual and drain
# ----------------------------------------------------------------------

def test_point_read_accrues_backend_specific_cost():
    for backend, expected in [
            (leveldb(), COSTS.leveldb_read_io),
            (couchdb(), COSTS.couch_request_io + COSTS.couch_read_per_doc_io),
    ]:
        seed(backend, "k")
        backend.get("k")
        assert backend.pending_cost == pytest.approx(expected)
        assert backend.stats.reads == 1


def test_drain_cost_returns_and_resets():
    backend = couchdb()
    seed(backend, "k")
    backend.get("k")
    first = backend.drain_cost()
    assert first > 0
    assert backend.drain_cost() == 0.0
    assert backend.pending_cost == 0.0


def test_reads_of_absent_keys_still_cost():
    backend = leveldb()
    assert backend.get("missing") is None
    assert backend.pending_cost == pytest.approx(COSTS.leveldb_read_io)


def test_apply_write_is_uncharged_out_of_band_seeding():
    backend = couchdb()
    seed(backend, "a", "b")
    assert backend.pending_cost == 0.0
    assert backend.peek("a").value == b"a"


def test_data_semantics_identical_across_backends():
    batch = [(KVWrite("x", b"1"), (1, 0)), (KVWrite("y", b"2"), (1, 1))]
    backends = [leveldb(), couchdb(),
                couchdb(cache=ReadCache(8), bulk=True)]
    for backend in backends:
        backend.commit_batch(committed(batch))
        backend.drain_cost()
    hashes = {backend.state_hash() for backend in backends}
    assert len(hashes) == 1


# ----------------------------------------------------------------------
# Read cache
# ----------------------------------------------------------------------

def test_cache_hit_is_free_and_counted():
    backend = couchdb(cache=ReadCache(8))
    seed(backend, "k")
    backend.get("k")            # miss: populates the cache
    backend.drain_cost()
    assert backend.get("k").value == b"k"
    assert backend.pending_cost == 0.0
    assert backend.stats.cache_hits == 1
    assert backend.stats.cache_misses == 1


def test_cache_negative_entry_absorbs_repeated_misses():
    backend = couchdb(cache=ReadCache(8))
    backend.get("missing")
    backend.drain_cost()
    assert backend.get("missing") is None
    assert backend.pending_cost == 0.0
    assert backend.stats.cache_hits == 1


def test_commit_updates_cached_entries_write_through():
    backend = couchdb(cache=ReadCache(8))
    seed(backend, "k")
    backend.get("k")
    backend.drain_cost()
    backend.commit_batch(committed([(KVWrite("k", b"new"), (5, 0))]))
    backend.drain_cost()
    # The cached entry was refreshed in place: the next read is a hit AND
    # observes the committed version (MVCC would catch staleness here).
    entry = backend.get("k")
    assert backend.pending_cost == 0.0
    assert entry.value == b"new"
    assert entry.version == (5, 0)


def test_commit_of_delete_leaves_negative_cache_entry():
    backend = couchdb(cache=ReadCache(8))
    seed(backend, "k")
    backend.get("k")
    backend.drain_cost()
    backend.commit_batch(committed(
        [(KVWrite("k", b"", is_delete=True), (5, 0))]))
    backend.drain_cost()
    assert backend.get("k") is None
    assert backend.pending_cost == 0.0      # served by the negative entry
    assert backend.stats.deletes == 1


def test_cache_and_prefetch_hold_the_stored_entry():
    # One entry format from store to cache: the cache and the prefetch
    # buffer keep the very (value, version) tuple the commit stored, and
    # only the reads that return a value wrap it.
    backend = couchdb(cache=ReadCache(8), bulk=True)
    seed(backend, "a", "b")
    backend.get("a")
    batch = committed([(KVWrite("a", b"1"), (2, 0)),
                       (KVWrite("b", b"2"), (2, 1))])
    backend.commit_batch(batch)
    stored_a, stored_b = batch[0][1], batch[1][1]
    assert backend._data["a"] is stored_a
    assert backend.cache.lookup("a") is stored_a
    backend.bulk_get(["a", "b"])
    assert backend._prefetched["a"] is stored_a
    assert backend._prefetched["b"] is stored_b
    assert backend.cache.lookup("b") is stored_b
    for read in (backend.get("b"), backend.peek("b")):
        assert type(read) is VersionedValue
        assert read == stored_b
    assert backend.get_version("a") == (2, 0)


# ----------------------------------------------------------------------
# Bulk reads
# ----------------------------------------------------------------------

def test_bulk_get_charges_one_batch_and_prefetches():
    backend = couchdb(bulk=True)
    seed(backend, "a", "b", "c")
    backend.bulk_get(["a", "b", "c", "a"])
    assert backend.stats.bulk_read_batches == 1
    assert backend.pending_cost == pytest.approx(
        COSTS.couch_request_io + 3 * COSTS.couch_read_per_doc_io)
    backend.drain_cost()
    # The MVCC scan's per-key lookups are now free.
    assert backend.get_version("a") == (1, 0)
    assert backend.pending_cost == 0.0


def test_bulk_get_skips_cached_keys():
    backend = couchdb(cache=ReadCache(8), bulk=True)
    seed(backend, "a", "b")
    backend.get("a")
    backend.drain_cost()
    backend.bulk_get(["a", "b"])
    # Only "b" was missing; "a" came from the cache.
    assert backend.pending_cost == pytest.approx(
        COSTS.couch_request_io + 1 * COSTS.couch_read_per_doc_io)
    assert backend.stats.cache_hits == 1


def test_bulk_get_of_fully_known_set_is_free():
    backend = couchdb(bulk=True)
    seed(backend, "a")
    backend.bulk_get(["a"])
    backend.drain_cost()
    backend.bulk_get(["a"])
    assert backend.pending_cost == 0.0
    assert backend.stats.bulk_read_batches == 1


# ----------------------------------------------------------------------
# Commit costs
# ----------------------------------------------------------------------

def test_leveldb_commit_cost_is_per_key():
    backend = leveldb()
    batch = [(KVWrite(f"k{i}", b"v"), (1, i)) for i in range(5)]
    backend.commit_batch(committed(batch))
    assert backend.pending_cost == pytest.approx(
        COSTS.leveldb_write_batch_base_io
        + 5 * COSTS.leveldb_write_per_key_io)
    assert backend.stats.writes == 5
    assert backend.stats.commit_batches == 1


def test_couchdb_commit_pays_revision_lookups_for_unknown_keys():
    backend = couchdb()
    batch = [(KVWrite("a", b"1"), (1, 0)), (KVWrite("b", b"2"), (1, 1))]
    backend.commit_batch(committed(batch))
    # Neither revision was locally known: 2 GETs + 2 PUTs.
    assert backend.stats.revision_lookups == 2
    assert backend.pending_cost == pytest.approx(
        2 * COSTS.couch_request_io + 2 * COSTS.couch_write_per_doc_io
        + 2 * (COSTS.couch_request_io + COSTS.couch_read_per_doc_io))


def test_couchdb_prefetched_revisions_skip_the_lookup():
    backend = couchdb(bulk=True)
    seed(backend, "a", "b")
    backend.bulk_get(["a", "b"])
    backend.drain_cost()
    backend.commit_batch(committed([(KVWrite("a", b"1"), (2, 0)),
                                    (KVWrite("b", b"2"), (2, 1))]))
    assert backend.stats.revision_lookups == 0
    # One _bulk_docs request, no revision fetch.
    assert backend.pending_cost == pytest.approx(
        COSTS.couch_request_io + 2 * COSTS.couch_write_per_doc_io)
    assert backend.stats.bulk_write_batches == 1


def test_bulk_commit_amortizes_request_overhead():
    batch = [(KVWrite(f"k{i}", b"v"), (1, i)) for i in range(10)]
    plain, bulk = couchdb(), couchdb(bulk=True)
    plain.commit_batch(committed(batch))
    bulk.commit_batch(committed(batch))
    assert bulk.pending_cost < plain.pending_cost


def test_commit_clears_the_prefetch_buffer():
    backend = couchdb(bulk=True)
    seed(backend, "a")
    backend.bulk_get(["a"])
    backend.drain_cost()
    backend.commit_batch(committed([(KVWrite("a", b"1"), (2, 0))]))
    backend.drain_cost()
    backend.get("a")
    assert backend.pending_cost > 0     # prefetch no longer serves it


# ----------------------------------------------------------------------
# Wipe
# ----------------------------------------------------------------------

def test_wipe_drops_store_prefetch_and_cache():
    backend = couchdb(cache=ReadCache(8), bulk=True)
    seed(backend, "a", "b")
    backend.bulk_get(["a"])
    backend.drain_cost()
    backend.wipe()
    assert len(backend) == 0
    assert backend.get("a") is None
    assert backend.pending_cost > 0     # miss again: nothing was retained


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------

def test_statedb_imports_nothing_from_the_ledger():
    # The ledger builds on the state backend, never the other way round.
    package = pathlib.Path(repro.statedb.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name == "repro.ledger"
                      or name.startswith("repro.ledger.")]
    assert found == []
