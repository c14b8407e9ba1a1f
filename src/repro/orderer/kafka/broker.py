"""A Kafka broker hosting one partition per Fabric channel (§III).

Each channel maps to one Kafka partition ("in the Hyperledger Fabric
context, a partition is a channel").  The partition leader appends produced
items to the partition log, replicates them to the in-sync replicas, and
commits an offset once **all** ISR members have acknowledged it — the
paper's description of Kafka's in-sync-replica protocol, whose replication
latency it calls out.  Committed items are pushed to subscribed consumers
(the OSNs) in offset order.

All partitions share the broker replica set and (therefore, with the
lowest-live-broker preference rule) the same leader.  Fault handling
mirrors Kafka with unclean leader election disabled:

- replication is offset-indexed with a follower-side reorder buffer, so
  concurrently delivered replicate messages cannot create log gaps;
- the leader's high watermark is piggybacked on replicate messages and
  announced on commit, so followers track commitment;
- followers that stop acknowledging within the ISR timeout are removed from
  the ISR (commits are then re-evaluated without them);
- on leader failover (ZooKeeper session expiry), the new leader keeps its
  entire log — as a member of the ISR it holds every committed offset — and
  re-replicates its uncommitted suffix under the new epoch;
- a recovered broker asks the current leader to re-sync and rejoins the ISR
  once caught up.
"""

from __future__ import annotations

import typing

from repro.common.config import OrdererConfig
from repro.runtime.context import NetworkContext
from repro.runtime.node import NodeBase
from repro.sim.network import Message

# One ordered item: ("tx", envelope) or ("ttc", (channel, block_number)).
StreamItem = typing.Tuple[str, typing.Any]


def _item_size(item: StreamItem) -> int:
    if item[0] == "tx":
        return item[1].wire_size()
    return 128


class Partition:
    """One channel's replicated log state at one broker."""

    def __init__(self, channel: str) -> None:
        self.channel = channel
        self.log: list[StreamItem] = []
        self.high_watermark = 0          # offsets below this are committed
        # offset -> set of follower names that acked (leader only).
        self.pending_acks: dict[int, set[str]] = {}
        #: consumer name -> next offset to push (leader only).
        self.consumers: dict[str, int] = {}
        #: follower-side reorder buffer: offset -> item.
        self.replica_buffer: dict[int, StreamItem] = {}


class BrokerNode(NodeBase):
    """One Kafka broker; may lead or follow the channel partitions."""

    def __init__(self, context: NetworkContext, name: str, index: int,
                 config: OrdererConfig, zookeeper_names: list[str],
                 replica_brokers: list[str],
                 channels: typing.Sequence[str] = ("mychannel",)) -> None:
        super().__init__(context, name, cores=4)
        self.index = index
        self.config = config
        self.zookeeper_names = zookeeper_names
        self.replica_brokers = replica_brokers
        self.is_replica = name in replica_brokers
        self.partitions: dict[str, Partition] = {
            channel: Partition(channel) for channel in channels}
        self.leader: str | None = None
        self.leader_epoch = 0
        self.isr: list[str] = []
        self._heartbeat_started = False
        self.on("produce", self._handle_produce)
        self.on("replicate", self._handle_replicate)
        self.on("replicate_ack", self._handle_replicate_ack)
        self.on("fetch_subscribe", self._handle_fetch_subscribe)
        self.on("partition_leader", self._handle_partition_leader)
        self.on("zk_registered", self._handle_zk_registered)
        self.on("isr_rejoin", self._handle_isr_rejoin)
        self.on("hw_update", self._handle_hw_update)

    @property
    def is_leader(self) -> bool:
        return self.leader == self.name

    def partition(self, channel: str) -> Partition:
        return self.partitions[channel]

    # ------------------------------------------------------------------
    # Single-channel conveniences (most deployments and tests)
    # ------------------------------------------------------------------

    @property
    def _default_partition(self) -> Partition:
        return next(iter(self.partitions.values()))

    @property
    def log(self) -> list[StreamItem]:
        return self._default_partition.log

    @property
    def high_watermark(self) -> int:
        return self._default_partition.high_watermark

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        super().start()
        self._register_with_zookeeper()
        if not self._heartbeat_started:
            self._heartbeat_started = True
            self.sim.process(self._heartbeat_loop())

    def recover(self) -> None:
        super().recover()
        for partition in self.partitions.values():
            partition.replica_buffer.clear()
        self._register_with_zookeeper()
        if self.leader is not None and self.leader != self.name:
            self._request_resync()

    def _register_with_zookeeper(self) -> None:
        for zk in self.zookeeper_names:
            self.send(zk, "zk_register", {"broker": self.name})
        for zk in self.zookeeper_names:
            self.send(zk, "zk_watch_leader", {})

    def _request_resync(self) -> None:
        for channel, partition in self.partitions.items():
            self.send(self.leader, "isr_rejoin",
                      {"broker": self.name, "channel": channel,
                       "log_length": len(partition.log)})

    def _heartbeat_loop(self):
        while True:
            yield self.sim.timeout(self.config.kafka_heartbeat_interval)
            if self.crashed:
                continue
            for zk in self.zookeeper_names:
                self.send(zk, "zk_heartbeat", {"broker": self.name})

    def _handle_zk_registered(self, message: Message):
        """Session open; leadership arrives by the ``partition_leader`` watch."""

    # ------------------------------------------------------------------
    # Leadership changes
    # ------------------------------------------------------------------

    def _handle_partition_leader(self, message: Message):
        epoch = message.payload["epoch"]
        if epoch <= self.leader_epoch:
            return
        self.leader_epoch = epoch
        previous_leader = self.leader
        self.leader = message.payload["leader"]
        alive = message.payload.get("alive_replicas", self.replica_brokers)
        if self.is_leader:
            # As an ISR member this log holds every committed offset; keep
            # it whole and re-replicate the uncommitted suffix.
            self.isr = [broker for broker in self.replica_brokers
                        if broker != self.name and broker in alive]
            for partition in self.partitions.values():
                partition.pending_acks.clear()
                partition.replica_buffer.clear()
                for offset in range(partition.high_watermark,
                                    len(partition.log)):
                    self._replicate_offset(partition, offset)
                if (partition.high_watermark < len(partition.log)
                        and not self.isr):
                    self._commit_available(partition)
        elif previous_leader == self.name:
            for partition in self.partitions.values():
                partition.consumers.clear()
        if (not self.is_leader and self.is_replica
                and self.leader is not None
                and previous_leader != self.leader):
            # Ask the new leader where its log stands; overwrite semantics
            # reconcile any diverged uncommitted suffix.
            self._request_resync()

    # ------------------------------------------------------------------
    # Produce / replicate / commit
    # ------------------------------------------------------------------

    def _handle_produce(self, message: Message):
        if not self.is_leader:
            if self.leader is not None:
                # Stale producer metadata: forward to the real leader.
                self.send(self.leader, "produce", message.payload,
                          size=message.size)
            return
        channel = message.payload["channel"]
        partition = self.partitions.get(channel)
        if partition is None:
            return
        item: StreamItem = message.payload["item"]
        yield from self.compute(self.costs.kafka_append_cpu)
        yield from self.compute(self.costs.consensus_fsync_io)
        offset = len(partition.log)
        partition.log.append(item)
        followers = [broker for broker in self.isr if broker != self.name]
        if not followers:
            self._commit_available(partition)
            return
        partition.pending_acks[offset] = set()
        self._replicate_offset(partition, offset)
        self.sim.process(self._isr_timeout_watch(partition, offset))

    def _replicate_offset(self, partition: Partition, offset: int) -> None:
        item = partition.log[offset]
        for follower in self.isr:
            if follower == self.name:
                continue
            self.send(follower, "replicate",
                      {"channel": partition.channel, "offset": offset,
                       "item": item, "epoch": self.leader_epoch,
                       "leader_hw": partition.high_watermark},
                      size=_item_size(item))
        if offset not in partition.pending_acks:
            partition.pending_acks[offset] = set()

    def _handle_replicate(self, message: Message):
        if message.payload["epoch"] < self.leader_epoch:
            return
        partition = self.partitions.get(message.payload["channel"])
        if partition is None:
            return
        offset = message.payload["offset"]
        item = message.payload["item"]
        yield from self.compute(self.costs.kafka_append_cpu)
        yield from self.compute(self.costs.consensus_fsync_io)
        # Offsets may arrive out of order (concurrent handlers); buffer and
        # drain contiguously so the log never develops gaps.  The drain has
        # no yield points, so it is atomic within the simulation.
        if offset < len(partition.log):
            partition.log[offset] = item  # suffix reconciliation
            self._ack(message.source, partition, offset,
                      message.payload["epoch"])
        else:
            partition.replica_buffer[offset] = item
            while len(partition.log) in partition.replica_buffer:
                next_offset = len(partition.log)
                partition.log.append(
                    partition.replica_buffer.pop(next_offset))
                self._ack(message.source, partition, next_offset,
                          message.payload["epoch"])
        leader_hw = message.payload.get("leader_hw", 0)
        if leader_hw > partition.high_watermark:
            partition.high_watermark = min(leader_hw, len(partition.log))

    def _ack(self, leader: str, partition: Partition, offset: int,
             epoch: int) -> None:
        self.send(leader, "replicate_ack",
                  {"channel": partition.channel, "offset": offset,
                   "follower": self.name, "epoch": epoch})

    def _handle_replicate_ack(self, message: Message):
        if not self.is_leader:
            return
        if message.payload["epoch"] != self.leader_epoch:
            return
        partition = self.partitions.get(message.payload["channel"])
        if partition is None:
            return
        offset = message.payload["offset"]
        acks = partition.pending_acks.get(offset)
        if acks is None:
            return
        acks.add(message.payload["follower"])
        self._maybe_commit(partition, offset)

    def _maybe_commit(self, partition: Partition, offset: int) -> None:
        """Commit ``offset`` if every current ISR follower has acked it."""
        acks = partition.pending_acks.get(offset)
        if acks is None:
            return
        followers = {broker for broker in self.isr if broker != self.name}
        if followers <= acks:
            del partition.pending_acks[offset]
            self._commit_available(partition)

    def _commit_available(self, partition: Partition) -> None:
        """Advance the high watermark over contiguous committed offsets."""
        advanced = False
        while (partition.high_watermark < len(partition.log)
               and partition.high_watermark not in partition.pending_acks):
            partition.high_watermark += 1
            advanced = True
        if advanced:
            # Followers learn commitment from the leader (Kafka piggybacks
            # the HW on fetch responses; we send it explicitly).
            for follower in self.isr:
                if follower != self.name:
                    self.send(follower, "hw_update",
                              {"channel": partition.channel,
                               "hw": partition.high_watermark,
                               "epoch": self.leader_epoch}, size=64)
            self._push_to_consumers(partition)

    def _handle_hw_update(self, message: Message):
        if message.payload["epoch"] < self.leader_epoch or self.is_leader:
            return
        partition = self.partitions.get(message.payload["channel"])
        if partition is None:
            return
        hw = message.payload["hw"]
        if hw > partition.high_watermark:
            partition.high_watermark = min(hw, len(partition.log))

    def _isr_timeout_watch(self, partition: Partition, offset: int):
        """Shrink the ISR if followers fail to ack ``offset`` in time."""
        yield self.sim.timeout(self.config.kafka_isr_ack_timeout)
        if self.crashed or not self.is_leader:
            return
        acks = partition.pending_acks.get(offset)
        if acks is None:
            return
        laggards = [broker for broker in self.isr
                    if broker != self.name and broker not in acks]
        for laggard in laggards:
            self.isr.remove(laggard)
        self._maybe_commit(partition, offset)

    def _handle_isr_rejoin(self, message: Message):
        """A recovered (or resyncing) replica asks to catch up and rejoin."""
        if not self.is_leader:
            return
        partition = self.partitions.get(
            message.payload.get("channel", self.channel_names()[0]))
        if partition is None:
            return
        broker = message.payload["broker"]
        from_offset = min(message.payload["log_length"],
                          len(partition.log))
        for offset in range(from_offset, len(partition.log)):
            item = partition.log[offset]
            self.send(broker, "replicate",
                      {"channel": partition.channel, "offset": offset,
                       "item": item, "epoch": self.leader_epoch,
                       "leader_hw": partition.high_watermark},
                      size=_item_size(item))
        if broker not in self.isr and broker in self.replica_brokers:
            self.isr.append(broker)

    def channel_names(self) -> list[str]:
        return list(self.partitions)

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------

    def _handle_fetch_subscribe(self, message: Message):
        channel = message.payload.get("channel")
        targets = ([self.partitions[channel]] if channel is not None
                   else list(self.partitions.values()))
        offsets = message.payload.get("offsets", {})
        for partition in targets:
            start = offsets.get(partition.channel,
                                message.payload.get("offset", 0))
            partition.consumers[message.source] = start
            self._push_to_consumers(partition)

    def _push_to_consumers(self, partition: Partition) -> None:
        for consumer in list(partition.consumers):
            while partition.consumers[consumer] < partition.high_watermark:
                self._push_one(partition, consumer)

    def _push_one(self, partition: Partition, consumer: str) -> None:
        offset = partition.consumers[consumer]
        item = partition.log[offset]
        partition.consumers[consumer] = offset + 1
        self.send(consumer, "consume",
                  {"channel": partition.channel, "offset": offset,
                   "item": item}, size=_item_size(item))
