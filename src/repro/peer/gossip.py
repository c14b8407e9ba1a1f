"""Block dissemination between peers.

In Fabric, one leader peer per organisation pulls blocks from the ordering
service and gossips them to the other peers.  The simulation supports both
modes: direct deliver (every peer subscribes to an OSN — the paper's setup,
where block propagation cost is carried by the orderer links) and gossip
(only the leader peer subscribes and forwards).

Gossip runs over one relay tree rooted at the leader: every peer
forwards each fresh block to its children.

- **flat** (the default, ``gossip_fanout=0``) is the tree of fan-out P-1:
  the leader unicasts every block to every other peer.  Faithful to small
  deployments, but at 100+ peers it serialises P-1 copies of each block
  through the leader's NIC;
- **relay tree** (``gossip_fanout=N``): an N-ary tree, so dissemination
  is O(log_N P) hops with per-node egress bounded by N — the sane fan-out
  for scale-out topologies.
"""

from __future__ import annotations

import typing

from repro.common.types import Block

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.peer.peer import PeerNode


def relay_children(names: list[str], fanout: int) -> dict[str, list[str]]:
    """Assign each peer its children in an N-ary relay tree.

    ``names[0]`` is the root (the leader peer); node ``i``'s children are
    nodes ``i*fanout + 1 .. i*fanout + fanout`` in list order — the classic
    implicit-heap layout, deterministic for a deterministic name order.
    """
    if fanout < 1:
        raise ValueError(f"relay fanout must be >= 1, got {fanout}")
    children: dict[str, list[str]] = {}
    for index, name in enumerate(names):
        first = index * fanout + 1
        children[name] = names[first:first + fanout]
    return children


class GossipService:
    """Forwards received blocks down the relay tree (leader-peer mode)."""

    def __init__(self, peer: "PeerNode", is_leader: bool = False) -> None:
        self._peer = peer
        self.is_leader = is_leader
        #: Relay-tree children: each fresh block goes to them, whether it
        #: arrived from the orderer (the leader) or from the parent peer.
        self.children: list[str] = []
        self.blocks_forwarded = 0

    def set_children(self, names: list[str]) -> None:
        self.children = [name for name in names if name != self._peer.name]

    def on_block(self, block: Block, from_orderer: bool) -> None:
        """Forward a block onward if this peer carries dissemination duty."""
        # The leader injects orderer blocks, every relay (including the
        # leader) forwards to its children exactly once — the tree has no
        # cycles, so one receipt means one forward.
        children = self.children
        if not children or (from_orderer and not self.is_leader):
            return
        for target in children:
            self._peer.send(target, "gossip_block", block,
                            size=block.wire_size())
        self.blocks_forwarded += len(children)
        self._peer.tracer.instant(
            "gossip.forward", category="gossip", node=self._peer.name,
            block=block.number, fanout=len(children))
