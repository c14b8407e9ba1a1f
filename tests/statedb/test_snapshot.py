"""Tests for state snapshots and ledger catch-up (snapshot + replay)."""

import dataclasses

import pytest

from repro.common.config import ChannelConfig, StateDBConfig
from repro.common.types import (
    Block,
    KVWrite,
    TransactionEnvelope,
    TxReadWriteSet,
    ValidationCode,
)
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.network import FabricNetwork
from repro.ledger import Ledger
from repro.runtime.costs import CostModel
from repro.statedb import LevelDBBackend, snapshot
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


def chain(length):
    """``length`` valid blocks past genesis, each writing two keys, for
    several ledgers to commit the same block objects."""
    blocks = []
    previous = Block.genesis("ch").header_hash()
    for number in range(1, length + 1):
        txs = (make_tx(f"t{number}-0", f"k{number}"),
               make_tx(f"t{number}-1", "shared", value=bytes([number])))
        block = Block(number=number, previous_hash=previous,
                      transactions=txs, channel="ch")
        block.metadata.validation_flags = [ValidationCode.VALID] * len(txs)
        blocks.append(block)
        previous = block.header_hash()
    return blocks


def fresh_manifest(ledger):
    """The manifest of a snapshot built from scratch of ``ledger``'s
    state, bypassing the block's cached one and the key index."""
    entries = tuple(sorted(ledger.state._data.items()))
    return snapshot.take(entries, ledger.height).manifest


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
    commit_batches = ledger.state.stats.commit_batches

    snapshot_height, replayed = ledger.rebuild_state()
    assert (snapshot_height, replayed) == (3, 2)
    assert ledger.state.state_hash() == expected_hash
    assert ledger.state.stats.replayed_blocks == 2
    # A replay is not a live commit batch.
    assert ledger.state.stats.commit_batches == commit_batches
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


# ----------------------------------------------------------------------
# One snapshot per height, shared by peers whose states match
# ----------------------------------------------------------------------

def test_ledgers_committing_the_same_blocks_share_each_snapshot():
    ledgers = [Ledger("ch"), Ledger("ch")]
    for block in chain(4):
        for ledger in ledgers:
            ledger.commit_block(block)
            ledger.take_snapshot()
    first, second = (ledger.snapshots for ledger in ledgers)
    assert len(first) == len(second) == 4
    for mine, theirs in zip(first, second):
        assert mine is theirs
    for ledger in ledgers:
        assert ledger.latest_snapshot.manifest == fresh_manifest(ledger)


def test_a_ledger_whose_state_differs_builds_and_caches_its_own():
    matching, diverged = Ledger("ch"), Ledger("ch")
    [block] = chain(1)
    for ledger in (matching, diverged):
        ledger.commit_block(block)
    shared = matching.take_snapshot()
    diverged.state.apply_write(KVWrite("extra", b"x"), version=(1, 0))
    own = diverged.take_snapshot()
    assert own is not shared
    assert own.manifest == fresh_manifest(diverged)
    assert own.manifest.entry_count == shared.manifest.entry_count + 1
    assert block.snapshot is own


def test_adopting_a_snapshot_charges_what_building_it_does():
    builder, adopter = Ledger("ch"), Ledger("ch")
    for block in chain(3):
        for ledger in (builder, adopter):
            ledger.commit_block(block)
            ledger.state.drain_cost()
    built = builder.take_snapshot()
    assert adopter.take_snapshot() is built
    for ledger in (builder, adopter):
        stats = ledger.state.stats
        assert stats.snapshots_taken == 1
        assert stats.snapshot_bytes == built.manifest.byte_size
    assert builder.state.pending_cost == adopter.state.pending_cost
    assert adopter.state.pending_cost == pytest.approx(
        built.manifest.byte_size * COSTS.snapshot_io_per_byte)


def test_rebuild_state_from_an_adopted_snapshot():
    builder, adopter = Ledger("ch"), Ledger("ch")
    blocks = chain(4)
    for block in blocks[:2]:
        for ledger in (builder, adopter):
            ledger.commit_block(block)
    assert adopter.take_snapshot() is builder.take_snapshot()
    for block in blocks[2:]:
        for ledger in (builder, adopter):
            ledger.commit_block(block)
    expected_hash = adopter.state.state_hash()

    assert adopter.rebuild_state() == (3, 2)
    assert adopter.state.state_hash() == expected_hash
    assert expected_hash == builder.state.state_hash()


def test_network_peers_share_one_snapshot_per_channel_height():
    statedb = StateDBConfig(kind="couchdb", cache=True, bulk=True,
                            snapshot_interval=3)
    topology = dataclasses.replace(
        make_topology("raft", "OR10", 4, statedb=statedb),
        extra_channels=[ChannelConfig(name="ch2",
                                      endorsement_policy="OR10")])
    network = FabricNetwork(topology, make_workload(60.0, 4.0), seed=1)
    network.run_workload()
    taken = 0
    shared: dict[tuple[str, int], set[int]] = {}
    for peer in network.peers:
        for channel in peer.channels:
            for snap in peer.ledger_for(channel).snapshots:
                taken += 1
                shared.setdefault((channel, snap.manifest.height),
                                  set()).add(id(snap))
    assert {channel for channel, _height in shared} == {"mychannel", "ch2"}
    assert taken == len(network.peers) * len(shared)
    assert all(len(objects) == 1 for objects in shared.values())
