"""Tests for the combined ledger commit semantics."""

import gc

import pytest

from repro.common.errors import ValidationError
from repro.common.types import (
    Block,
    KVRead,
    KVWrite,
    TransactionEnvelope,
    TxReadWriteSet,
    ValidationCode,
)
from repro.ledger import Ledger


def make_tx(tx_id, write_key, value=b"v"):
    rwset = TxReadWriteSet(reads=(KVRead(write_key, None),),
                           writes=(KVWrite(write_key, value),))
    return TransactionEnvelope(
        tx_id=tx_id, channel="ch", chaincode="cc", creator="client",
        rwset=rwset, endorsements=(), response_bytes=b"r")


def make_block(ledger, txs, flags):
    block = Block(number=ledger.height,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=tuple(txs), channel="ch")
    block.metadata.validation_flags = list(flags)
    return block


def test_valid_tx_updates_state():
    ledger = Ledger("ch")
    tx = make_tx("t1", "k", b"value")
    ledger.commit_block(make_block(ledger, [tx], [ValidationCode.VALID]))
    assert ledger.state.get("k").value == b"value"
    assert ledger.state.get_version("k") == (1, 0)
    assert ledger.valid_tx_count == 1


def test_invalid_tx_recorded_but_state_untouched():
    ledger = Ledger("ch")
    tx = make_tx("t1", "k")
    ledger.commit_block(make_block(
        ledger, [tx], [ValidationCode.MVCC_READ_CONFLICT]))
    assert ledger.state.get("k") is None        # state not updated
    assert ledger.height == 2                   # but block recorded
    assert ledger.has_transaction("t1")         # and the tx is on-chain
    assert ledger.invalid_tx_count == 1


def test_flags_count_must_match():
    ledger = Ledger("ch")
    tx = make_tx("t1", "k")
    block = make_block(ledger, [tx], [])
    with pytest.raises(ValidationError):
        ledger.commit_block(block)


def test_version_reflects_tx_position_in_block():
    ledger = Ledger("ch")
    txs = [make_tx("t1", "a"), make_tx("t2", "b"), make_tx("t3", "c")]
    ledger.commit_block(make_block(ledger, txs, [ValidationCode.VALID] * 3))
    assert ledger.state.get_version("a") == (1, 0)
    assert ledger.state.get_version("b") == (1, 1)
    assert ledger.state.get_version("c") == (1, 2)


def test_history_records_only_valid_writes():
    ledger = Ledger("ch")
    txs = [make_tx("t1", "k", b"1"), make_tx("t2", "k", b"2")]
    flags = [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]
    ledger.commit_block(make_block(ledger, txs, flags))
    history = ledger.history.for_key("k")
    assert len(history) == 1
    assert history[0].tx_id == "t1"


def test_has_transaction_false_before_commit():
    ledger = Ledger("ch")
    assert not ledger.has_transaction("nope")


def test_chain_grows_and_verifies():
    ledger = Ledger("ch")
    for index in range(5):
        tx = make_tx(f"t{index}", f"k{index}")
        ledger.commit_block(make_block(ledger, [tx], [ValidationCode.VALID]))
    assert ledger.height == 6
    assert ledger.blocks.verify_chain()


def test_ledger_records_stay_out_of_the_cyclic_collector():
    # Every peer keeps these records for the whole run, so a tracked one
    # is re-scanned by every full collection.  A collection after each
    # commit stands in for the young collections of a long run: one pass
    # untracks a tuple only once its items are untracked, and may visit a
    # tuple before items built in the same burst, so such a chain can lose
    # as little as one level per pass.
    ledger = Ledger("ch")
    for index in range(4):
        txs = [make_tx(f"hot{index}", "hot", b"%d" % index),
               make_tx(f"cold{index}", f"k{index}")]
        ledger.commit_block(make_block(ledger, txs,
                                       [ValidationCode.VALID] * 2))
        ledger.take_snapshot()
        gc.collect()
    # The last block's snapshot entries sit two levels above its version
    # tuples (snapshot entry -> state entry -> version): two more passes.
    gc.collect()
    gc.collect()
    state = ledger.state._data
    assert len(state) == 5
    for entry in state.values():
        assert not gc.is_tracked(entry)
    nodes = [write for _number, writes in ledger.history._blocks
             for write in writes]
    assert len(nodes) == 8
    for node in nodes:
        assert not gc.is_tracked(node)
    assert len(ledger.snapshots) == 4
    for snapshot in ledger.snapshots:
        for entry in snapshot.entries:
            assert not gc.is_tracked(entry)
    assert [entry.tx_id for entry in ledger.history.for_key("hot")] == [
        "hot0", "hot1", "hot2", "hot3"]


def test_ledgers_committing_one_block_with_equal_flags_share_entries():
    # Every peer commits the same Block object; peers whose flags agree
    # reuse one commit plan, so they store the very same state entries.
    ledgers = [Ledger("ch") for _ in range(4)]
    txs = [make_tx("t1", "a", b"1"), make_tx("t2", "b", b"2")]
    block = make_block(ledgers[0], txs, [])
    valid = [ValidationCode.VALID] * 2
    ledgers[0].commit_block(block, valid)
    ledgers[1].commit_block(block, list(valid))
    stores = [ledger.state._data for ledger in ledgers]
    assert stores[0]["a"] is stores[1]["a"]
    assert stores[0]["b"] is stores[1]["b"]
    # Different flags: its own entries, and only its own valid writes.
    ledgers[2].commit_block(
        block, [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT])
    assert stores[2]["a"] == stores[0]["a"]
    assert stores[2]["a"] is not stores[0]["a"]
    assert "b" not in stores[2]
    assert (ledgers[2].valid_tx_count, ledgers[2].invalid_tx_count) == (1, 1)
    assert [entry.tx_id for entry in ledgers[2].history.for_key("b")] == []
    # The others are untouched, and equal flags still commit both writes.
    ledgers[3].commit_block(block, valid)
    for ledger in (ledgers[0], ledgers[1], ledgers[3]):
        assert (ledger.valid_tx_count, ledger.invalid_tx_count) == (2, 0)
        assert ledger.state.get("b").value == b"2"
        assert ledger.state.get_version("b") == (1, 1)
        assert [entry.tx_id for entry in ledger.history.for_key("b")] == [
            "t2"]
    assert block.metadata.validation_flags == []
