"""Tests for leader-peer gossip block dissemination.

Flat gossip is the relay tree of fan-out P-1: the leader's children are
every other peer, and no other peer has children.
"""

from repro.peer.gossip import relay_children
from tests.peer.helpers import PeerRig, make_signed_block, write_rwset


def flat_tree(rig):
    """Wire ``rig`` for flat gossip rooted at peer0."""
    names = [peer.name for peer in rig.peers]
    children = relay_children(names, len(names) - 1)
    for peer in rig.peers:
        peer.gossip.set_children(children[peer.name])
    return children


def test_leader_forwards_orderer_blocks_to_neighbours():
    rig = PeerRig(num_peers=3)
    leader = rig.peers[0]
    leader.gossip.is_leader = True
    assert flat_tree(rig) == {"peer0": ["peer1", "peer2"], "peer1": [],
                              "peer2": []}
    envelope = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    block = make_signed_block(rig, leader, [envelope])
    # Deliver as if from the orderer.
    from repro.sim.network import Message

    rig.context.network.add_node("osn0")
    rig.context.network.send(
        Message("osn0", leader.name, "block", block,
                size=block.wire_size()))
    rig.sim.run()
    # Every peer committed via gossip.
    for peer in rig.peers:
        assert peer.ledger.height == 2
    assert leader.gossip.blocks_forwarded == 2


def test_non_leader_does_not_forward():
    rig = PeerRig(num_peers=2)
    follower = rig.peers[1]
    # A non-leader with children still ignores orderer deliveries.
    follower.gossip.set_children([peer.name for peer in rig.peers])
    envelope = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    block = make_signed_block(rig, follower, [envelope])
    from repro.sim.network import Message

    rig.context.network.add_node("osn0")
    rig.context.network.send(
        Message("osn0", follower.name, "block", block,
                size=block.wire_size()))
    rig.sim.run()
    assert follower.gossip.blocks_forwarded == 0
    assert rig.peers[0].ledger.height == 1  # never received it


def test_gossiped_blocks_not_reforwarded():
    # In flat gossip only the leader has children, so a peer that
    # receives a gossiped block keeps it.
    rig = PeerRig(num_peers=2)
    rig.peers[0].gossip.is_leader = True
    flat_tree(rig)
    envelope = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    block = make_signed_block(rig, rig.peers[0], [envelope])
    from repro.sim.network import Message

    rig.context.network.add_node("osn0")
    rig.context.network.send(
        Message("osn0", rig.peers[0].name, "block", block,
                size=block.wire_size()))
    rig.sim.run()
    assert rig.peers[0].gossip.blocks_forwarded == 1
    assert rig.peers[1].gossip.blocks_forwarded == 0
    assert rig.peers[1].ledger.height == 2


def test_set_children_excludes_self():
    rig = PeerRig(num_peers=2)
    peer = rig.peers[0]
    peer.gossip.set_children(["peer0", "peer1"])
    assert peer.gossip.children == ["peer1"]


# ----------------------------------------------------------------------
# Relay-tree gossip (gossip_fanout=N scale-out mode)
# ----------------------------------------------------------------------

def test_relay_children_implicit_heap_layout():
    import pytest

    names = [f"p{i}" for i in range(7)]
    children = relay_children(names, fanout=2)
    assert children["p0"] == ["p1", "p2"]
    assert children["p1"] == ["p3", "p4"]
    assert children["p2"] == ["p5", "p6"]
    assert children["p3"] == []
    with pytest.raises(ValueError):
        relay_children(names, fanout=0)


def test_relay_tree_reaches_every_peer_with_bounded_fanout():
    from repro.sim.network import Message

    fanout = 2
    rig = PeerRig(num_peers=7)
    names = [peer.name for peer in rig.peers]
    children = relay_children(names, fanout)
    leader = rig.peers[0]
    leader.gossip.is_leader = True
    for peer in rig.peers:
        peer.gossip.set_children(children[peer.name])
    envelope = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    block = make_signed_block(rig, leader, [envelope])
    rig.context.network.add_node("osn0")
    rig.context.network.send(
        Message("osn0", leader.name, "block", block,
                size=block.wire_size()))
    rig.sim.run()
    for peer in rig.peers:
        assert peer.ledger.height == 2, peer.name
        # Each node forwards to at most `fanout` children — dissemination
        # load is spread down the tree, not serialised at the leader.
        assert peer.gossip.blocks_forwarded <= fanout
    total = sum(peer.gossip.blocks_forwarded for peer in rig.peers)
    assert total == len(rig.peers) - 1  # each non-root receives once


def test_relay_follower_ignores_direct_orderer_blocks():
    # In tree mode only the leader injects orderer deliveries; a stray
    # orderer send to a mid-tree relay must not double-disseminate.
    from repro.sim.network import Message

    rig = PeerRig(num_peers=3)
    names = [peer.name for peer in rig.peers]
    children = relay_children(names, fanout=2)
    for peer in rig.peers:
        peer.gossip.set_children(children[peer.name])
    follower = rig.peers[1]
    envelope = rig.make_envelope("t1", write_rwset("k"), [rig.peers[0]])
    block = make_signed_block(rig, follower, [envelope])
    rig.context.network.add_node("osn0")
    rig.context.network.send(
        Message("osn0", follower.name, "block", block,
                size=block.wire_size()))
    rig.sim.run()
    assert follower.gossip.blocks_forwarded == 0
    assert follower.ledger.height == 2  # it still commits locally
