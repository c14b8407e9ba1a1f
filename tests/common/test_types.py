"""Tests for the wire-level data types."""


from repro.common.types import (
    Block,
    KVRead,
    KVWrite,
    Proposal,
    TransactionEnvelope,
    TxReadWriteSet,
    ValidationCode,
)


def make_rwset(read_keys=("a",), write_keys=("b",)):
    return TxReadWriteSet(
        reads=tuple(KVRead(key, (0, 0)) for key in read_keys),
        writes=tuple(KVWrite(key, b"v") for key in write_keys))


def make_envelope(tx_id="tx1", rwset=None):
    return TransactionEnvelope(
        tx_id=tx_id, channel="ch", chaincode="cc", creator="client0",
        rwset=rwset or make_rwset(), endorsements=(),
        response_bytes=b"resp")


def test_tx_id_is_deterministic_and_distinct():
    assert Proposal.compute_tx_id("c", 1) == Proposal.compute_tx_id("c", 1)
    assert Proposal.compute_tx_id("c", 1) != Proposal.compute_tx_id("c", 2)
    assert Proposal.compute_tx_id("c", 1) != Proposal.compute_tx_id("d", 1)


def test_rwset_digest_changes_with_contents():
    base = make_rwset()
    different_read = TxReadWriteSet(
        reads=(KVRead("a", (1, 0)),), writes=base.writes)
    different_write = TxReadWriteSet(
        reads=base.reads, writes=(KVWrite("b", b"other"),))
    assert base.digest() != different_read.digest()
    assert base.digest() != different_write.digest()


def test_rwset_key_accessors():
    rwset = make_rwset(read_keys=("r1", "r2"), write_keys=("w1",))
    assert rwset.read_keys == ("r1", "r2")
    assert rwset.write_keys == ("w1",)


def test_genesis_block_shape():
    genesis = Block.genesis("ch")
    assert genesis.number == 0
    assert genesis.previous_hash == "0" * 64
    assert len(genesis) == 0


def test_block_data_hash_computed_on_creation():
    block = Block(number=1, previous_hash="0" * 64,
                  transactions=(make_envelope(),), channel="ch")
    assert block.data_hash == block.compute_data_hash()


def test_block_header_hash_depends_on_contents():
    first = Block(number=1, previous_hash="0" * 64,
                  transactions=(make_envelope("tx1"),), channel="ch")
    second = Block(number=1, previous_hash="0" * 64,
                   transactions=(make_envelope("tx2"),), channel="ch")
    assert first.header_hash() != second.header_hash()


def test_envelope_wire_size_grows_with_endorsements():
    from repro.common.crypto import CryptoProvider
    from repro.common.types import Endorsement

    crypto = CryptoProvider(b"r")
    envelope_bare = make_envelope()
    endorsement = Endorsement("p0", "org", crypto.sign("p0", b"x"))
    envelope_endorsed = make_envelope()
    envelope_endorsed.endorsements = (endorsement,) * 5
    assert envelope_endorsed.wire_size() > envelope_bare.wire_size()


def test_validation_code_is_valid():
    assert ValidationCode.VALID.is_valid
    assert not ValidationCode.MVCC_READ_CONFLICT.is_valid


def test_block_len_counts_transactions():
    block = Block(number=1, previous_hash="0" * 64,
                  transactions=(make_envelope("a"), make_envelope("b")),
                  channel="ch")
    assert len(block) == 2


def test_proposal_bytes_to_sign_distinct_per_field():
    base = Proposal(tx_id="t", channel="ch", chaincode="cc", function="f",
                    args=("1",), creator="c", nonce=7)
    changed = Proposal(tx_id="t", channel="ch", chaincode="cc", function="g",
                       args=("1",), creator="c", nonce=7)
    assert base.bytes_to_sign() != changed.bytes_to_sign()
    # Pairs that a separator-joined encoding signs alike: a re-split
    # argument, a separator moved between two fields, no args vs one
    # empty arg.
    colliding = [
        ({"args": ("a,b",)}, {"args": ("a", "b")}),
        ({"chaincode": "cc|f", "function": "g"},
         {"chaincode": "cc", "function": "f|g"}),
        ({"channel": "ch|cc", "chaincode": "f"},
         {"channel": "ch", "chaincode": "cc|f"}),
        ({"args": ()}, {"args": ("",)}),
    ]
    fields = dict(tx_id="t", channel="ch", chaincode="cc", function="f",
                  args=("1",), creator="c", nonce=7)
    for first, second in colliding:
        one = Proposal(**{**fields, **first})
        other = Proposal(**{**fields, **second})
        assert one.bytes_to_sign() != other.bytes_to_sign(), (first, second)
