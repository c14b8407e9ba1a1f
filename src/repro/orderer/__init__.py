"""The ordering services: Solo, Kafka, and Raft (§III of the paper).

All three share the same front: ordering service nodes (OSNs) accept
endorsed transaction envelopes from clients (``broadcast``), order them on a
per-channel basis, package them into blocks under the BatchSize /
BatchTimeout rules, and deliver signed blocks to subscribed peers
(``deliver``).  They differ in how the envelope stream reaches consensus:

- **Solo** — a single OSN orders locally (no fault tolerance).
- **Kafka** — OSNs produce envelopes to a Kafka partition replicated across
  brokers (ZooKeeper elects the partition leader); every OSN consumes the
  committed stream and cuts blocks deterministically, using time-to-cut
  (TTC) markers for atomic timeout cuts.
- **Raft** — the leader OSN cuts blocks and replicates them through the Raft
  log; commit requires a majority.

:class:`OrderingServiceNode` alone cuts, builds, signs, counts, delivers
and acknowledges blocks: Kafka only produces and consumes, and Raft only
proposes through its log and commits on apply.  :class:`OrderingService`
alone names a deployment's ``machines`` and its ``leader``.
"""

from repro.orderer.base import OrderingService, OrderingServiceNode
from repro.orderer.blockcutter import BlockCutter
from repro.orderer.kafka.service import KafkaOrderingService
from repro.orderer.raft.service import RaftOrderingService
from repro.orderer.solo import SoloOrderingService

__all__ = [
    "BlockCutter",
    "KafkaOrderingService",
    "OrderingService",
    "OrderingServiceNode",
    "RaftOrderingService",
    "SoloOrderingService",
]


def build_ordering_service(kind):
    """Map an :class:`~repro.common.config.OrdererConfig` kind to its class."""
    services = {
        "solo": SoloOrderingService,
        "kafka": KafkaOrderingService,
        "raft": RaftOrderingService,
    }
    try:
        return services[kind]
    except KeyError:
        raise ValueError(f"unknown ordering service kind {kind!r}") from None
