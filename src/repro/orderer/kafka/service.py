"""Kafka-based ordering service: OSN front-ends over the broker cluster.

Each OSN produces accepted envelopes to the channel partition's leader
broker and consumes the committed stream back, feeding its deterministic
per-channel block cutter — so all OSNs cut identical blocks.  BatchTimeout
is implemented with time-to-cut (TTC) markers produced through the
partition, exactly as Fabric's Kafka consenter does: the first ordered TTC
for a block number cuts it everywhere; stale TTCs are ignored.
"""

from __future__ import annotations

from repro.common.config import OrdererConfig
from repro.common.errors import ConfigurationError
from repro.common.types import TransactionEnvelope
from repro.msp.identity import Identity
from repro.orderer.base import OrderingService, OrderingServiceNode
from repro.orderer.kafka.broker import BrokerNode, StreamItem
from repro.orderer.kafka.zookeeper import ZooKeeperEnsemble
from repro.runtime.node import NodeBase
from repro.sim.network import Message


class _ChannelCursor:
    """Per-channel consume position with a reorder buffer."""

    def __init__(self) -> None:
        self.next_offset = 0
        self.reorder_buffer: dict[int, StreamItem] = {}


class KafkaOSN(OrderingServiceNode):
    """An ordering service node backed by the Kafka cluster."""

    def __init__(self, context, name: str, config: OrdererConfig,
                 channel, identity: Identity,
                 zookeeper_names: list[str],
                 metrics_leader: bool = False) -> None:
        super().__init__(context, name, config, channel, identity,
                         metrics_leader=metrics_leader)
        self.zookeeper_names = zookeeper_names
        self.partition_leader: str | None = None
        self.leader_epoch = 0
        self._cursors: dict[str, _ChannelCursor] = {
            name_: _ChannelCursor() for name_ in self.channels}
        self.on("consume", self._handle_consume)
        self.on("partition_leader", self._handle_partition_leader)

    def start(self) -> None:
        super().start()
        for zk in self.zookeeper_names:
            self.send(zk, "zk_watch_leader", {})

    # Single-channel convenience used by tests.
    @property
    def next_offset(self) -> int:
        return self._cursors[self.channel].next_offset

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------

    def _submit(self, envelope: TransactionEnvelope):
        if self.partition_leader is None:
            # No partition leader (cluster still electing): fail fast so
            # the client can back off and resubmit instead of burning its
            # full ordering timeout.  Mirrors the Raft no-leader nack.
            self._nack(envelope, "no leader")
            return
        yield from self._produce(envelope.channel, ("tx", envelope),
                                 envelope.wire_size())

    def _submit_ttc(self, channel: str, block_number: int):
        yield from self._produce(channel,
                                 ("ttc", (channel, block_number)), 128)

    def _produce(self, channel: str, item: StreamItem, size: int):
        if self.partition_leader is None:
            return  # no leader (cluster still electing); producer drops
        self.send(self.partition_leader, "produce",
                  {"channel": channel, "item": item}, size=size)
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------

    def _handle_partition_leader(self, message: Message):
        epoch = message.payload["epoch"]
        if epoch <= self.leader_epoch:
            return
        self.leader_epoch = epoch
        self.partition_leader = message.payload["leader"]
        self.send(self.partition_leader, "fetch_subscribe",
                  {"offsets": {channel: cursor.next_offset
                               for channel, cursor in self._cursors.items()}})

    def _handle_consume(self, message: Message):
        cursor = self._cursors.get(message.payload["channel"])
        if cursor is None:
            return
        offset = message.payload["offset"]
        item = message.payload["item"]
        if offset < cursor.next_offset:
            return  # duplicate after resubscribe
        cursor.reorder_buffer[offset] = item
        if cursor.next_offset not in cursor.reorder_buffer:
            return  # out of order; wait for the gap to fill
        with self.tracer.span("order.kafka.consume", category="order",
                              node=self.name) as span:
            consumed = 0
            while cursor.next_offset in cursor.reorder_buffer:
                next_item = cursor.reorder_buffer.pop(cursor.next_offset)
                cursor.next_offset += 1
                consumed += 1
                yield from self._consume_ordered(next_item)
            span.annotate(channel=message.payload["channel"],
                          items=consumed)


class KafkaOrderingService(OrderingService):
    """Facade building ZooKeeper ensemble, brokers, and Kafka OSNs."""

    kind = "kafka"

    def __init__(self, context, config: OrdererConfig, channel,
                 identities: list[Identity]) -> None:
        self.zookeeper: ZooKeeperEnsemble | None = None
        self.brokers: list[BrokerNode] = []
        super().__init__(context, config, channel, identities)

    def _build(self, identities: list[Identity]) -> None:
        if len(identities) != self.config.num_osns:
            raise ConfigurationError(
                f"kafka needs {self.config.num_osns} OSN identities, "
                f"got {len(identities)}")
        broker_names = [f"broker{i}" for i in range(self.config.num_brokers)]
        replica_brokers = broker_names[:self.config.replication_factor]
        self.zookeeper = ZooKeeperEnsemble(self.context, self.config,
                                           replica_brokers)
        zookeeper_names = [node.name for node in self.zookeeper.nodes]
        self.brokers = [
            BrokerNode(self.context, name, index, self.config,
                       zookeeper_names, replica_brokers,
                       channels=self.channels)
            for index, name in enumerate(broker_names)]
        self.nodes = [
            KafkaOSN(self.context, identity.name, self.config,
                     self.channels, identity, zookeeper_names,
                     metrics_leader=(index == 0))
            for index, identity in enumerate(identities)]

    def start(self) -> None:
        if self.zookeeper is not None:
            self.zookeeper.start()
        for broker in self.brokers:
            broker.start()
        super().start()

    def broker_named(self, name: str) -> BrokerNode:
        for broker in self.brokers:
            if broker.name == name:
                return broker
        raise KeyError(name)

    @property
    def machines(self) -> list[NodeBase]:
        """The OSNs, then the brokers, then the ZooKeeper nodes."""
        zookeeper = self.zookeeper.nodes if self.zookeeper else []
        return [*self.nodes, *self.brokers, *zookeeper]

    @property
    def leader(self) -> str | None:
        """The partition-leader broker, as ZooKeeper elected it."""
        return self.zookeeper.partition_leader if self.zookeeper else None
