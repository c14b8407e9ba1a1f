"""Tests for the hash-chained block store."""

import dataclasses

import pytest

from repro.common.errors import ValidationError
from repro.common.types import Block
from repro.ledger import BlockStore
from tests.common.test_types import make_envelope


def make_block(store, tx_ids=("tx1",)):
    return Block(number=store.height,
                 previous_hash=store.last_block.header_hash(),
                 transactions=tuple(make_envelope(t) for t in tx_ids),
                 channel=store.channel)


def test_new_store_has_genesis():
    store = BlockStore("ch")
    assert store.height == 1
    assert store.get(0).number == 0


def test_append_and_get():
    store = BlockStore("ch")
    block = make_block(store)
    store.append(block)
    assert store.height == 2
    assert store.get(1) is block
    assert store.last_block is block


def test_append_rejects_wrong_number():
    store = BlockStore("ch")
    block = make_block(store)
    wrong = dataclasses.replace(block, number=5)
    with pytest.raises(ValidationError):
        store.append(wrong)


def test_append_rejects_broken_hash_link():
    store = BlockStore("ch")
    block = make_block(store)
    broken = dataclasses.replace(block, previous_hash="f" * 64)
    with pytest.raises(ValidationError):
        store.append(broken)


def test_append_rejects_wrong_channel():
    store = BlockStore("ch")
    block = make_block(store)
    other = dataclasses.replace(block, channel="other")
    with pytest.raises(ValidationError):
        store.append(other)


def test_append_rejects_tampered_data_hash():
    store = BlockStore("ch")
    block = make_block(store, tx_ids=("tx1", "tx2"))
    # Tamper with a transaction after the data hash was computed.
    tampered = dataclasses.replace(
        block, transactions=(make_envelope("evil"),))
    with pytest.raises(ValidationError):
        store.append(tampered)


def test_reassigned_transactions_are_hashed_again():
    first = BlockStore("ch")
    second = BlockStore("ch")
    block = make_block(first, tx_ids=("tx1", "tx2"))
    first.append(block)
    assert first.verify_chain()
    # Tamper with the appended block itself: every later check of its
    # data hash must see the new transactions.
    block.transactions = (make_envelope("evil"),)
    with pytest.raises(ValidationError):
        second.append(block)
    assert not first.verify_chain()


def test_chain_verifies_after_many_appends():
    store = BlockStore("ch")
    for index in range(10):
        store.append(make_block(store, tx_ids=(f"tx{index}",)))
    assert store.verify_chain()
    assert store.height == 11


def test_get_out_of_range_raises():
    store = BlockStore("ch")
    with pytest.raises(KeyError):
        store.get(1)
    with pytest.raises(KeyError):
        store.get(-1)


def test_find_transaction():
    store = BlockStore("ch")
    store.append(make_block(store, tx_ids=("a", "b")))
    store.append(make_block(store, tx_ids=("c",)))
    block, index = store.find_transaction("b")
    assert block.number == 1
    assert index == 1
    assert store.find_transaction("ghost") is None


def test_iteration_in_order():
    store = BlockStore("ch")
    store.append(make_block(store))
    numbers = [block.number for block in store]
    assert numbers == [0, 1]
