"""A ZooKeeper ensemble: sessions, quorum writes, partition-leader election.

The ensemble provides the services the paper names (§III): leader election,
membership management, and access control for the Kafka cluster.  Brokers
register ephemeral sessions kept alive by heartbeats; when a session
expires, the ensemble elects a new partition leader from the in-sync
replicas and notifies every watcher (brokers and OSNs).

Metadata updates are quorum writes: the ensemble leader proposes to its
followers and commits once a majority (counting itself) has acknowledged —
so scaling the ensemble changes write latency only marginally at LAN
round-trip times, which is why the paper sees no throughput difference when
scaling ZooKeeper nodes (Fig. 8).
"""

from __future__ import annotations

import itertools
import typing

from repro.common.config import OrdererConfig
from repro.runtime.context import NetworkContext
from repro.runtime.node import NodeBase
from repro.sim.network import Message


class ZooKeeperNode(NodeBase):
    """One ensemble member.  The lowest-indexed live node leads."""

    def __init__(self, context: NetworkContext, name: str, index: int,
                 ensemble: "ZooKeeperEnsemble") -> None:
        super().__init__(context, name, cores=2)
        self.index = index
        self.ensemble = ensemble
        self.on("zk_register", self._handle_register)
        self.on("zk_heartbeat", self._handle_heartbeat)
        self.on("zk_watch_leader", self._handle_watch)
        self.on("zk_propose", self._handle_propose)
        self.on("zk_propose_ack", self._handle_propose_ack)
        # Proposal id -> count of follower acks (leader only).
        self._ack_counts: dict[int, int] = {}
        self._ack_waiters: dict[int, typing.Any] = {}
        self._proposal_ids = itertools.count()
        # Broker sessions: name -> last heartbeat time (leader only).
        self.sessions: dict[str, float] = {}
        self._session_monitor_started = False

    # ------------------------------------------------------------------
    # Leadership within the ensemble
    # ------------------------------------------------------------------

    @property
    def is_ensemble_leader(self) -> bool:
        return self.ensemble.leader_node() is self

    def start(self) -> None:
        super().start()
        if not self._session_monitor_started:
            self._session_monitor_started = True
            self.sim.process(self._session_monitor())

    # ------------------------------------------------------------------
    # Broker-facing API
    # ------------------------------------------------------------------

    def _handle_register(self, message: Message):
        if not self.is_ensemble_leader:
            return  # brokers talk to every zk node; only the leader acts
        broker = message.payload["broker"]
        yield from self._quorum_write()
        self.sessions[broker] = self.sim.now
        self.ensemble.note_broker_alive(broker)
        self.send(message.source, "zk_registered", {"leader_zk": self.name})
        yield from self.ensemble.maybe_elect(self)

    def _handle_heartbeat(self, message: Message):
        if not self.is_ensemble_leader:
            return
        broker = message.payload["broker"]
        if broker in self.sessions:
            self.sessions[broker] = self.sim.now

    def _handle_watch(self, message: Message):
        self.ensemble.add_watcher(message.source)
        leader = self.ensemble.partition_leader
        if leader is not None:
            self.send(message.source, "partition_leader",
                      {"leader": leader, "epoch": self.ensemble.leader_epoch,
                       "alive_replicas": sorted(
                           self.ensemble.alive_brokers)})

    def _session_monitor(self):
        """Expire broker sessions that missed heartbeats (leader only)."""
        timeout = self.ensemble.config.kafka_session_timeout
        while True:
            yield self.sim.timeout(
                self.ensemble.config.kafka_heartbeat_interval)
            if self.crashed or not self.is_ensemble_leader:
                continue
            now = self.sim.now
            expired = [broker for broker, last in self.sessions.items()
                       if now - last > timeout]
            for broker in expired:
                del self.sessions[broker]
                yield from self._quorum_write()
                self.ensemble.note_broker_dead(broker)
            if expired:
                yield from self.ensemble.maybe_elect(self)

    # ------------------------------------------------------------------
    # Quorum writes
    # ------------------------------------------------------------------

    def _quorum_write(self):
        """Replicate a metadata update to a majority of the ensemble."""
        yield from self.compute(self.costs.zookeeper_write_cpu)
        followers = [node for node in self.ensemble.nodes
                     if node is not self and not node.crashed]
        majority = len(self.ensemble.nodes) // 2 + 1
        needed = majority - 1  # the leader's own write counts
        if needed <= 0 or not followers:
            return
        proposal_id = next(self._proposal_ids)
        self._ack_counts[proposal_id] = 0
        done = self.sim.event()
        self._ack_waiters[proposal_id] = (done, needed)
        for follower in followers:
            self.send(follower.name, "zk_propose",
                      {"proposal": proposal_id, "from": self.name})
        yield done
        self._ack_waiters.pop(proposal_id, None)
        self._ack_counts.pop(proposal_id, None)

    def _handle_propose(self, message: Message):
        yield from self.compute(self.costs.zookeeper_write_cpu)
        self.send(message.source, "zk_propose_ack",
                  {"proposal": message.payload["proposal"]})

    def _handle_propose_ack(self, message: Message):
        proposal_id = message.payload["proposal"]
        if proposal_id not in self._ack_waiters:
            return
        self._ack_counts[proposal_id] += 1
        done, needed = self._ack_waiters[proposal_id]
        if self._ack_counts[proposal_id] >= needed and not done.triggered:
            done.succeed()


class ZooKeeperEnsemble:
    """The ensemble as a whole: registry, election, watcher notification."""

    def __init__(self, context: NetworkContext, config: OrdererConfig,
                 replica_brokers: list[str]) -> None:
        self.context = context
        self.config = config
        #: Brokers hosting a replica of the partition, in preference order
        #: (the first ``replication_factor`` brokers, as Kafka assigns).
        self.replica_brokers = replica_brokers
        self.nodes: list[ZooKeeperNode] = [
            ZooKeeperNode(context, f"zk{i}", i, self)
            for i in range(config.num_zookeepers)]
        self.alive_brokers: set[str] = set()
        self.partition_leader: str | None = None
        self.leader_epoch = 0
        self._watchers: list[str] = []
        self._electing = False

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    def leader_node(self) -> ZooKeeperNode | None:
        """The lowest-indexed live ensemble member."""
        for node in self.nodes:
            if not node.crashed:
                return node
        return None

    def note_broker_alive(self, broker: str) -> None:
        self.alive_brokers.add(broker)

    def note_broker_dead(self, broker: str) -> None:
        self.alive_brokers.discard(broker)

    def add_watcher(self, name: str) -> None:
        if name not in self._watchers:
            self._watchers.append(name)

    def maybe_elect(self, via: ZooKeeperNode):
        """Elect a partition leader if none, or the current one died.

        Elections are serialized: concurrent registrations and expiries
        funnel through one election at a time, and the need for an election
        is re-checked after the quorum write (another call may have already
        elected while this one waited).
        """
        if self._electing:
            return
        if (self.partition_leader is not None
                and self.partition_leader in self.alive_brokers):
            return
        self._electing = True
        try:
            yield from via._quorum_write()
            if (self.partition_leader is not None
                    and self.partition_leader in self.alive_brokers):
                return
            candidates = [broker for broker in self.replica_brokers
                          if broker in self.alive_brokers]
            if not candidates:
                self.partition_leader = None
                return
            self.partition_leader = candidates[0]
            self.leader_epoch += 1
            self.context.metrics.runtime_event(
                "kafka.partition_leader", via.name,
                detail=self.partition_leader)
            for watcher in self._watchers:
                via.send(watcher, "partition_leader",
                         {"leader": self.partition_leader,
                          "epoch": self.leader_epoch,
                          "alive_replicas": sorted(self.alive_brokers)})
        finally:
            self._electing = False
