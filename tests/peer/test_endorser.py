"""Tests for the endorsement flow (execute phase)."""


from repro.common.types import Proposal
from tests.peer.helpers import CHANNEL, PeerRig


def make_proposal(rig, function="write", args=("k1", "v"),
                  chaincode="noop", creator="client0", nonce=1):
    tx_id = Proposal.compute_tx_id(creator, nonce)
    return Proposal(tx_id=tx_id, channel=CHANNEL, chaincode=chaincode,
                    function=function, args=tuple(args), creator=creator,
                    nonce=nonce)


def test_endorsement_happy_path():
    rig = PeerRig()
    proposal = make_proposal(rig)
    response = rig.endorse_sync(rig.peers[0], proposal)
    assert response.ok
    assert response.status == 200
    assert response.rwset.write_keys == ("k1",)
    assert response.endorsement.endorser == "peer0"


def test_endorsement_signature_verifies():
    rig = PeerRig()
    proposal = make_proposal(rig)
    response = rig.endorse_sync(rig.peers[0], proposal)
    assert rig.msp.verify_signature(
        response.endorsement.signature, response.response_bytes(), "Org1")


def test_endorsement_takes_simulated_time():
    rig = PeerRig()
    proposal = make_proposal(rig)
    rig.endorse_sync(rig.peers[0], proposal)
    costs = rig.context.costs
    assert rig.sim.now >= (costs.endorse_cpu
                           + costs.chaincode_container_latency)


def test_bad_client_signature_rejected():
    rig = PeerRig()
    proposal = make_proposal(rig)
    wrong = rig.client_identity.sign(b"something else")
    response = rig.endorse_sync(rig.peers[0], proposal, signature=wrong)
    assert not response.ok
    assert "signature" in response.message


def test_resplit_args_rejected_under_the_original_signature():
    # Same creator and nonce, so the same tx id: only the signed bytes can
    # tell key "a,b" with value "v" from key "a" with value "b,v".
    rig = PeerRig()
    signed = make_proposal(rig, args=("a,b", "v"))
    resplit = make_proposal(rig, args=("a", "b,v"))
    signature = rig.client_identity.sign(signed.bytes_to_sign())
    response = rig.endorse_sync(rig.peers[0], resplit, signature=signature)
    assert not response.ok
    assert response.message == "bad client signature"


def test_unauthorized_creator_rejected():
    rig = PeerRig()
    intruder = rig.ca.enroll("intruder", __import__(
        "repro.msp.identity", fromlist=["Role"]).Role.CLIENT)
    proposal = make_proposal(rig, creator="intruder")
    signature = intruder.sign(proposal.bytes_to_sign())
    response = rig.endorse_sync(rig.peers[0], proposal, signature=signature)
    assert not response.ok
    assert "may not write" in response.message


def test_tampered_tx_id_rejected_as_malformed():
    rig = PeerRig()
    proposal = make_proposal(rig)
    tampered = Proposal(tx_id="f" * 64, channel=proposal.channel,
                        chaincode=proposal.chaincode,
                        function=proposal.function, args=proposal.args,
                        creator=proposal.creator, nonce=proposal.nonce)
    response = rig.endorse_sync(rig.peers[0], tampered)
    assert not response.ok
    assert "malformed" in response.message


def test_unknown_chaincode_rejected():
    rig = PeerRig()
    proposal = make_proposal(rig, chaincode="ghostcc")
    response = rig.endorse_sync(rig.peers[0], proposal)
    assert not response.ok
    assert "not installed" in response.message


def test_replayed_transaction_rejected():
    from tests.peer.helpers import make_signed_block, write_rwset

    rig = PeerRig()
    peer = rig.peers[0]
    proposal = make_proposal(rig, nonce=42)
    # Commit the same tx id first.
    envelope = rig.make_envelope(proposal.tx_id, write_rwset("k1"),
                                 [rig.peers[0]])
    block = make_signed_block(rig, peer, [envelope])
    peer.validator.submit_block(block)
    rig.sim.run()
    assert peer.ledger.has_transaction(proposal.tx_id)
    response = rig.endorse_sync(peer, proposal)
    assert not response.ok
    assert "already submitted" in response.message


def test_chaincode_failure_gives_500_response():
    rig = PeerRig()
    proposal = make_proposal(rig, chaincode="money", function="transfer",
                             args=("ghost-a", "ghost-b", "10"))
    response = rig.endorse_sync(rig.peers[0], proposal)
    assert response.status == 500
    assert not response.ok
    assert "no account" in response.message


def test_endorsement_counters():
    rig = PeerRig()
    good = make_proposal(rig, nonce=1)
    bad = make_proposal(rig, chaincode="ghostcc", nonce=2)
    rig.endorse_sync(rig.peers[0], good)
    rig.endorse_sync(rig.peers[0], bad)
    assert rig.peers[0].endorser.proposals_endorsed == 1
    assert rig.peers[0].endorser.proposals_rejected == 1


def test_concurrent_endorsements_bounded_by_slots():
    rig = PeerRig()
    peer = rig.peers[0]
    slots = rig.context.costs.endorser_concurrency
    finish_times = []

    def one(nonce):
        proposal = make_proposal(rig, args=(f"k{nonce}", "v"), nonce=nonce)
        signature = rig.client_identity.sign(proposal.bytes_to_sign())
        yield from peer.endorser.endorse(proposal, signature)
        finish_times.append(rig.sim.now)

    jobs = 2 * slots
    for nonce in range(1, jobs + 1):
        rig.sim.process(one(nonce))
    rig.sim.run()
    # Two waves: the second wave finishes roughly one service time later.
    assert len(finish_times) == jobs
    assert finish_times[-1] > finish_times[0]


def test_proposal_to_wrong_channel_ignored_via_message_path():
    rig = PeerRig()
    peer = rig.peers[0]
    from repro.runtime.node import NodeBase

    replies = []
    client = NodeBase(rig.context, "rawclient", cores=1)

    def on_reply(message):
        replies.append(message.payload)
        return
        yield

    client.on("proposal_response", on_reply)
    client.start()
    proposal = Proposal(tx_id=Proposal.compute_tx_id("client0", 7),
                        channel="wrongchannel", chaincode="noop",
                        function="write", args=("k", "v"),
                        creator="client0", nonce=7)
    signature = rig.client_identity.sign(proposal.bytes_to_sign())
    client.send(peer.name, "proposal",
                {"proposal": proposal, "signature": signature})
    rig.sim.run()
    assert replies == []
