"""Tests for the validate phase: VSCC, MVCC, and commit."""


from repro.common.types import KVRead, KVWrite, TxReadWriteSet, ValidationCode
from repro.peer.validator import check_mvcc
from tests.peer.helpers import (
    PeerRig,
    make_signed_block,
    write_rwset,
)


def commit_and_run(rig, peer, block):
    peer.validator.submit_block(block)
    rig.sim.run()


def test_valid_block_commits_and_updates_state():
    rig = PeerRig()
    peer = rig.peers[0]
    envelope = rig.make_envelope("t1", write_rwset("k1", b"hello"),
                                 [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [envelope]))
    assert peer.ledger.height == 2
    assert peer.ledger.state.get("k1").value == b"hello"
    assert peer.ledger.valid_tx_count == 1


def test_unendorsed_transaction_flagged_policy_failure():
    rig = PeerRig()
    peer = rig.peers[0]
    envelope = rig.make_envelope("t1", write_rwset("k1"), [])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [envelope]))
    block = peer.ledger.blocks.get(1)
    assert block.metadata.validation_flags == [
        ValidationCode.ENDORSEMENT_POLICY_FAILURE]
    assert peer.ledger.state.get("k1") is None
    assert peer.ledger.invalid_tx_count == 1


def test_and_policy_requires_all_endorsers():
    rig = PeerRig(num_peers=3, policy_spec="AND3")
    peer = rig.peers[0]
    partial = rig.make_envelope("t1", write_rwset("k1"), rig.peers[:2])
    full = rig.make_envelope("t2", write_rwset("k2"), rig.peers)
    block = make_signed_block(rig, peer, [partial, full])
    commit_and_run(rig, peer, block)
    flags = peer.ledger.blocks.get(1).metadata.validation_flags
    assert flags == [ValidationCode.ENDORSEMENT_POLICY_FAILURE,
                     ValidationCode.VALID]


def test_tampered_endorsement_signature_flagged():
    rig = PeerRig()
    peer = rig.peers[0]
    envelope = rig.make_envelope("t1", write_rwset("k1"), [rig.peers[0]])
    envelope.response_bytes = b"tampered-after-endorsement"
    commit_and_run(rig, peer, make_signed_block(rig, peer, [envelope]))
    flags = peer.ledger.blocks.get(1).metadata.validation_flags
    assert flags == [ValidationCode.BAD_SIGNATURE]


def test_forged_block_signature_dropped_entirely():
    rig = PeerRig()
    peer = rig.peers[0]
    envelope = rig.make_envelope("t1", write_rwset("k1"), [rig.peers[0]])
    block = make_signed_block(rig, peer, [envelope])
    block.metadata.signature = rig.peers[1].identity.sign(b"wrong bytes")
    commit_and_run(rig, peer, block)
    assert peer.ledger.height == 1  # nothing committed


def test_intra_block_mvcc_conflict_first_writer_wins():
    rig = PeerRig()
    peer = rig.peers[0]
    first = rig.make_envelope("t1", write_rwset("shared"), [rig.peers[0]])
    second = rig.make_envelope("t2", write_rwset("shared"), [rig.peers[0]])
    block = make_signed_block(rig, peer, [first, second])
    commit_and_run(rig, peer, block)
    flags = peer.ledger.blocks.get(1).metadata.validation_flags
    assert flags == [ValidationCode.VALID,
                     ValidationCode.MVCC_READ_CONFLICT]


def test_cross_block_stale_read_conflict():
    rig = PeerRig()
    peer = rig.peers[0]
    # Block 1 writes k at version (1, 0).
    setup = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [setup]))
    # A transaction that simulated before that commit read version None.
    stale = rig.make_envelope("t2", write_rwset("k", read_version=None),
                              [rig.peers[0]])
    fresh = rig.make_envelope(
        "t3", write_rwset("other", read_version=None), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [stale, fresh]))
    flags = peer.ledger.blocks.get(2).metadata.validation_flags
    assert flags == [ValidationCode.MVCC_READ_CONFLICT,
                     ValidationCode.VALID]


def test_read_at_current_version_is_valid():
    rig = PeerRig()
    peer = rig.peers[0]
    setup = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [setup]))
    current = rig.make_envelope(
        "t2", write_rwset("k", read_version=(1, 0)), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [current]))
    flags = peer.ledger.blocks.get(2).metadata.validation_flags
    assert flags == [ValidationCode.VALID]


def test_duplicate_tx_id_across_blocks_flagged():
    rig = PeerRig()
    peer = rig.peers[0]
    first = rig.make_envelope("dup", write_rwset("a"), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [first]))
    replay = rig.make_envelope("dup", write_rwset("b", read_version=None),
                               [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [replay]))
    flags = peer.ledger.blocks.get(2).metadata.validation_flags
    assert flags == [ValidationCode.DUPLICATE_TXID]


def test_duplicate_tx_id_within_block_flagged():
    rig = PeerRig()
    peer = rig.peers[0]
    a = rig.make_envelope("dup", write_rwset("a"), [rig.peers[0]])
    b = rig.make_envelope("dup", write_rwset("b"), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [a, b]))
    flags = peer.ledger.blocks.get(1).metadata.validation_flags
    assert flags == [ValidationCode.VALID, ValidationCode.DUPLICATE_TXID]


def test_out_of_order_blocks_buffered_and_committed_in_order():
    rig = PeerRig()
    peer = rig.peers[0]
    env1 = rig.make_envelope("t1", write_rwset("a"), [rig.peers[0]])
    block1 = make_signed_block(rig, peer, [env1])
    # Build block 2 chained on block 1 before either is committed.
    from repro.common.types import Block

    env2 = rig.make_envelope("t2", write_rwset("b"), [rig.peers[0]])
    block2 = Block(number=2, previous_hash=block1.header_hash(),
                   transactions=(env2,), channel=block1.channel)
    block2.metadata.orderer = block1.metadata.orderer
    block2.metadata.signature = rig.ca.crypto.sign(
        block1.metadata.orderer, block2.header_bytes())
    # Deliver out of order.
    peer.validator.submit_block(block2)
    peer.validator.submit_block(block1)
    rig.sim.run()
    assert peer.ledger.height == 3
    assert [b.number for b in peer.ledger.blocks] == [0, 1, 2]


def test_duplicate_block_delivery_is_idempotent():
    rig = PeerRig()
    peer = rig.peers[0]
    envelope = rig.make_envelope("t1", write_rwset("a"), [rig.peers[0]])
    block = make_signed_block(rig, peer, [envelope])
    peer.validator.submit_block(block)
    peer.validator.submit_block(block)
    rig.sim.run()
    peer.validator.submit_block(block)
    rig.sim.run()
    assert peer.ledger.height == 2


def test_commit_event_notifies_registered_listener():
    rig = PeerRig()
    peer = rig.peers[0]
    from repro.runtime.node import NodeBase

    events = []
    listener = NodeBase(rig.context, "listener", cores=1)

    def on_commit(message):
        events.append((message.payload["tx_id"], message.payload["code"]))
        return
        yield

    listener.on("commit_event", on_commit)
    listener.start()
    listener.send(peer.name, "register_listener", {"tx_id": "t1"})
    rig.sim.run()
    envelope = rig.make_envelope("t1", write_rwset("a"), [rig.peers[0]])
    commit_and_run(rig, peer, make_signed_block(rig, peer, [envelope]))
    assert events == [("t1", ValidationCode.VALID)]


def test_validation_takes_time_proportional_to_endorsements():
    # AND5-style envelopes must take longer to validate than OR-style.
    def run_with(endorser_count, policy_spec, num_peers=5):
        rig = PeerRig(num_peers=num_peers, policy_spec=policy_spec)
        peer = rig.peers[0]
        envelopes = [
            rig.make_envelope(f"t{i}", write_rwset(f"k{i}"),
                              rig.peers[:endorser_count])
            for i in range(50)]
        block = make_signed_block(rig, peer, envelopes)
        start = rig.sim.now
        commit_and_run(rig, peer, block)
        return rig.sim.now - start

    or_time = run_with(1, "OR(1..n)")
    and_time = run_with(5, "AND5")
    assert and_time > or_time * 1.2


# ----------------------------------------------------------------------
# check_mvcc as a pure function
# ----------------------------------------------------------------------

def make_plain_envelope(tx_id, reads, writes):
    from repro.common.types import TransactionEnvelope

    rwset = TxReadWriteSet(
        reads=tuple(KVRead(k, v) for k, v in reads),
        writes=tuple(KVWrite(k, b"v") for k in writes))
    return TransactionEnvelope(
        tx_id=tx_id, channel="mychannel", chaincode="noop",
        creator="c", rwset=rwset, endorsements=(), response_bytes=b"")


def test_check_mvcc_skips_already_invalid():
    from repro.common.types import Block
    from repro.ledger import Ledger

    ledger = Ledger("mychannel")
    tx = make_plain_envelope("t1", [("k", (5, 5))], ["k"])
    block = Block(number=1,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=(tx,), channel="mychannel")
    flags = check_mvcc(ledger, block,
                       [ValidationCode.ENDORSEMENT_POLICY_FAILURE])
    assert flags == [ValidationCode.ENDORSEMENT_POLICY_FAILURE]


def test_check_mvcc_read_of_absent_key_with_none_version_ok():
    from repro.common.types import Block
    from repro.ledger import Ledger

    ledger = Ledger("mychannel")
    tx = make_plain_envelope("t1", [("k", None)], ["k"])
    block = Block(number=1,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=(tx,), channel="mychannel")
    assert check_mvcc(ledger, block, [ValidationCode.VALID]) == [
        ValidationCode.VALID]


def test_check_mvcc_delete_then_recreate_changes_version():
    # After delete + recreate, a reader holding the pre-delete version must
    # conflict: the recreated key carries the recreating tx's version.
    from repro.common.types import Block
    from repro.ledger import Ledger

    ledger = Ledger("mychannel")
    ledger.state.apply_write(KVWrite("k", b"v1"), version=(1, 0))
    ledger.state.apply_write(KVWrite("k", b"", is_delete=True),
                             version=(2, 0))
    ledger.state.apply_write(KVWrite("k", b"v2"), version=(3, 4))
    assert ledger.state.get_version("k") == (3, 4)
    stale = make_plain_envelope("t1", [("k", (1, 0))], ["k"])
    fresh = make_plain_envelope("t2", [("k", (3, 4))], ["k"])
    block = Block(number=4,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=(stale, fresh), channel="mychannel")
    flags = check_mvcc(ledger, block,
                       [ValidationCode.VALID, ValidationCode.VALID])
    assert flags == [ValidationCode.MVCC_READ_CONFLICT,
                     ValidationCode.VALID]


def test_check_mvcc_read_of_deleted_key_expects_none_version():
    # A deleted key reads as absent: version None validates, the old
    # pre-delete version conflicts.
    from repro.common.types import Block
    from repro.ledger import Ledger

    ledger = Ledger("mychannel")
    ledger.state.apply_write(KVWrite("k", b"v"), version=(1, 0))
    ledger.state.apply_write(KVWrite("k", b"", is_delete=True),
                             version=(2, 0))
    assert ledger.state.get_version("k") is None
    stale = make_plain_envelope("t1", [("k", (1, 0))], ["a"])
    absent = make_plain_envelope("t2", [("k", None)], ["b"])
    block = Block(number=3,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=(stale, absent), channel="mychannel")
    flags = check_mvcc(ledger, block,
                       [ValidationCode.VALID, ValidationCode.VALID])
    assert flags == [ValidationCode.MVCC_READ_CONFLICT,
                     ValidationCode.VALID]


def test_check_mvcc_invalid_tx_does_not_poison_block_writes():
    # An invalid earlier tx must NOT mark its write keys as updated.
    from repro.common.types import Block
    from repro.ledger import Ledger

    ledger = Ledger("mychannel")
    bad = make_plain_envelope("t1", [("x", (9, 9))], ["shared"])
    good = make_plain_envelope("t2", [("shared", None)], ["shared"])
    block = Block(number=1,
                  previous_hash=ledger.blocks.last_block.header_hash(),
                  transactions=(bad, good), channel="mychannel")
    flags = check_mvcc(ledger, block,
                       [ValidationCode.VALID, ValidationCode.VALID])
    assert flags == [ValidationCode.MVCC_READ_CONFLICT,
                     ValidationCode.VALID]


def test_each_peer_commits_its_own_verdicts_for_a_shared_block():
    # Every peer receives the same Block object, and the validator copies
    # its verdicts into the block's metadata before it commits.  Peer 1
    # already holds "k", so the transaction's read of an absent "k" is
    # stale there and fresh on peer 0: each ledger must apply its own
    # verdict, not whichever peer wrote the metadata last.
    rig = PeerRig(num_peers=2)
    peer0, peer1 = rig.peers
    peer1.ledger.state.apply_write(KVWrite("k", b"old"), version=(0, 0))
    envelope = rig.make_envelope("t1", write_rwset("k", b"new"), [peer0])
    block = make_signed_block(rig, peer0, [envelope])
    peer0.validator.submit_block(block)
    peer1.validator.submit_block(block)
    rig.sim.run()
    assert (peer0.ledger.valid_tx_count, peer0.ledger.invalid_tx_count) == (
        1, 0)
    assert (peer1.ledger.valid_tx_count, peer1.ledger.invalid_tx_count) == (
        0, 1)
    assert peer0.ledger.state.get("k").value == b"new"
    assert peer1.ledger.state.get("k").value == b"old"
