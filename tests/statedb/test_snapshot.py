"""Tests for state snapshots and ledger catch-up (snapshot + replay)."""

import pytest

from repro.common.types import (
    Block,
    KVWrite,
    TransactionEnvelope,
    TxReadWriteSet,
    ValidationCode,
)
from repro.ledger import Ledger
from repro.runtime.costs import CostModel
from repro.statedb import LevelDBBackend
from repro.statedb.snapshot import ENTRY_OVERHEAD_BYTES

COSTS = CostModel()


def make_tx(tx_id, key, value=b"v"):
    rwset = TxReadWriteSet(reads=(), writes=(KVWrite(key, value),))
    return TransactionEnvelope(
        tx_id=tx_id, channel="ch", chaincode="cc", creator="client",
        rwset=rwset, endorsements=(), response_bytes=b"r")


def commit(ledger, *keys):
    txs = [make_tx(f"t{ledger.height}-{i}", key)
           for i, key in enumerate(keys)]
    block = Block(number=ledger.height,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=tuple(txs), channel="ch")
    block.metadata.validation_flags = [ValidationCode.VALID] * len(txs)
    ledger.commit_block(block)
    ledger.state.drain_cost()


# ----------------------------------------------------------------------
# Snapshot mechanics
# ----------------------------------------------------------------------

def test_take_records_height_hash_and_size():
    backend = LevelDBBackend(COSTS)
    backend.apply_writes([KVWrite("ab", b"xyz")], version=(1, 0))
    snap = backend.take_snapshot(height=7)
    assert snap.manifest.height == 7
    assert snap.manifest.entry_count == 1
    assert snap.manifest.byte_size == 2 + 3 + ENTRY_OVERHEAD_BYTES
    assert snap.manifest.state_hash == backend.state_hash()
    assert backend.pending_cost == pytest.approx(
        snap.manifest.byte_size * COSTS.snapshot_io_per_byte)


def test_state_hash_is_sensitive_to_values_and_versions():
    a = LevelDBBackend(COSTS)
    b = LevelDBBackend(COSTS)
    a.apply_writes([KVWrite("k", b"v")], version=(1, 0))
    b.apply_writes([KVWrite("k", b"v")], version=(2, 0))
    assert a.state_hash() != b.state_hash()


def test_restore_replaces_state_exactly():
    backend = LevelDBBackend(COSTS)
    backend.apply_writes([KVWrite("a", b"1"), KVWrite("b", b"2")],
                         version=(3, 0))
    snap = backend.take_snapshot(height=3)
    backend.drain_cost()
    backend.apply_writes([KVWrite("c", b"3")], version=(4, 0))
    backend.restore_snapshot(snap)
    assert backend.keys() == ["a", "b"]
    assert backend.peek("a").version == (3, 0)
    assert backend.state_hash() == snap.manifest.state_hash
    assert backend.stats.restores == 1
    assert backend.pending_cost > 0


def test_snapshot_is_a_frozen_copy_not_a_view():
    backend = LevelDBBackend(COSTS)
    backend.apply_writes([KVWrite("k", b"old")], version=(1, 0))
    snap = backend.take_snapshot(height=1)
    backend.apply_writes([KVWrite("k", b"new")], version=(2, 0))
    [(key, (value, version))] = snap.entries
    assert (key, value, version) == ("k", b"old", (1, 0))


# ----------------------------------------------------------------------
# Ledger-level snapshots and rebuild
# ----------------------------------------------------------------------

def test_ledger_take_snapshot_appends_and_tracks_latest():
    ledger = Ledger("ch")
    commit(ledger, "a")
    first = ledger.take_snapshot()
    commit(ledger, "b")
    second = ledger.take_snapshot()
    assert ledger.snapshots == [first, second]
    assert ledger.latest_snapshot is second
    assert second.manifest.height == 3


def test_rebuild_state_from_snapshot_replays_only_the_tail():
    ledger = Ledger("ch")
    commit(ledger, "a")
    commit(ledger, "b")
    ledger.take_snapshot()              # height 3
    commit(ledger, "c")
    commit(ledger, "d")                 # height 5
    expected_hash = ledger.state.state_hash()
    ledger.state.drain_cost()

    snapshot_height, replayed = ledger.rebuild_state()
    assert (snapshot_height, replayed) == (3, 2)
    assert ledger.state.state_hash() == expected_hash
    assert ledger.state.stats.replayed_blocks == 2
    assert ledger.state.pending_cost > 0    # restore + replay were charged


def test_rebuild_state_without_snapshot_replays_from_genesis():
    ledger = Ledger("ch")
    commit(ledger, "a")
    commit(ledger, "b")                 # height 3 (genesis + 2)
    expected_hash = ledger.state.state_hash()

    snapshot_height, replayed = ledger.rebuild_state()
    assert snapshot_height == 0
    assert replayed == 3                # genesis + both data blocks
    assert ledger.state.state_hash() == expected_hash
