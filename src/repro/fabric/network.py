"""Build a complete simulated Fabric network from a topology config.

Mirrors the paper's deployment (§IV.A): endorsing peers and ordering service
nodes on separate machines, one workload client per endorsing peer, TLS
enabled everywhere, and the peers of the execute phase also carrying the
validate phase.
"""

from __future__ import annotations

import dataclasses

from repro.chaincode import (
    KVStoreChaincode,
    MoneyTransferChaincode,
    NoopChaincode,
    SmallbankChaincode,
)
from repro.chaincode.policy import EndorsementPolicy, channel_policies
from repro.client.sdk import ClientNode
from repro.client.workload import WorkloadGenerator
from repro.common.config import TopologyConfig, WorkloadConfig, plan_load
from repro.common.errors import ConfigurationError
from repro.faults import FaultInjector, FaultSchedule, compute_recovery
from repro.msp import MSP, CertificateAuthority, Role
from repro.obs import Observability
from repro.orderer import OrderingService, build_ordering_service
from repro.peer.gossip import relay_children
from repro.peer.peer import PeerNode
from repro.runtime.context import NetworkContext
from repro.runtime.costs import CostModel


class FabricNetwork:
    """A fully wired Fabric deployment inside one simulation."""

    #: Simulated seconds allowed for consensus leader election before load.
    STABILIZATION = 2.0

    def __init__(self, topology: TopologyConfig,
                 workload: WorkloadConfig | None = None,
                 seed: int = 0, costs: CostModel | None = None,
                 workload_kind: str = "unique",
                 observe: bool = False,
                 sample_interval: float | None = None,
                 faults: FaultSchedule | None = None) -> None:
        self.topology = topology
        self.workload_config = workload or WorkloadConfig()
        self.workload_config.validate()
        # Cross-validated: the topology alone cannot see client-vs-channel
        # starvation or per-channel mixes naming unknown channels.
        topology.validate(self.workload_config)
        #: The load plan: one slice per submitting client, in build order.
        self.plan = plan_load(topology, self.workload_config, workload_kind)
        self.context = NetworkContext.create(
            seed=seed, costs=costs,
            latency=topology.network_latency,
            bandwidth=topology.network_bandwidth,
            jitter=topology.network_jitter)
        if not topology.tls_enabled:
            # On a copy: the caller may build a TLS-on network from the
            # same cost model later.
            self.context.costs = dataclasses.replace(
                self.context.costs, tls_per_message_cpu=0.0)
        #: Observability layer (tracer + monitors); opt-in and off by
        #: default so unobserved runs carry zero instrumentation cost.
        self.obs: Observability | None = None
        if observe:
            self.obs = Observability(self.context.sim,
                                     sample_interval=sample_interval)
            self.context.tracer = self.obs.tracer

        self.ca = CertificateAuthority("Org1")
        self.msp = MSP([self.ca])
        self.channel_configs = [topology.channel] + list(
            topology.extra_channels)
        self.channel_names = topology.channel_names
        self.channel = topology.channel.name

        self.peers: list[PeerNode] = []
        self.endorsing_peers: list[PeerNode] = []
        self.clients: list[ClientNode] = []
        self.orderer: OrderingService | None = None
        self.policies: dict[str, EndorsementPolicy] = {}
        self.policy: EndorsementPolicy | None = None
        self.workload: WorkloadGenerator | None = None
        self._started = False

        self._build()
        #: Fault injector driving an optional :class:`FaultSchedule`.
        self.fault_injector: FaultInjector | None = None
        if faults is not None and faults:
            self.fault_injector = FaultInjector(
                self.context.sim, self.context.network, faults,
                resolve_node=self.node_named,
                resolve_alias=self._resolve_fault_alias,
                metrics=self.context.metrics,
                tracer=self.context.tracer)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self._build_peers()
        self.policies = channel_policies(self.topology)
        self.policy = self.policies[self.channel]
        self._join_peers_to_channels()
        self._build_orderer()
        self._wire_deliver_streams()
        cohorts = self.workload_config.population is not None
        for index, load in enumerate(self.plan):
            self.clients.append(self._make_client(
                load.name, index, load.channel,
                cohort=load.name if cohorts else ""))
        self.workload = WorkloadGenerator(self.clients, self.plan,
                                          self.workload_config)
        if self.obs is not None:
            self._attach_observability()

    def _build_peers(self) -> None:
        topology = self.topology
        for index, name in enumerate(topology.peer_names):
            is_endorsing = index < topology.num_endorsing_peers
            identity = self.ca.enroll(name, Role.PEER)
            peer = PeerNode(self.context, identity, self.msp,
                            is_endorsing=is_endorsing,
                            gossip_leader=(topology.gossip and index == 0),
                            statedb=topology.statedb)
            for chaincode_class in (NoopChaincode, KVStoreChaincode,
                                    MoneyTransferChaincode,
                                    SmallbankChaincode):
                peer.install_chaincode(chaincode_class())
            self.peers.append(peer)
            if is_endorsing:
                self.endorsing_peers.append(peer)
        if topology.gossip:
            # Flat gossip (fan-out 0) is the tree whose root, the leader,
            # forwards to every other peer.
            names = [peer.name for peer in self.peers]
            children = relay_children(
                names, topology.gossip_fanout or max(1, len(names) - 1))
            for peer in self.peers:
                peer.gossip.set_children(children[peer.name])

    def _join_peers_to_channels(self) -> None:
        for peer in self.peers:
            for config in self.channel_configs:
                peer.join_channel(config.name, self.policies[config.name])

    def _build_orderer(self) -> None:
        config = self.topology.orderer
        identities = [self.ca.enroll(f"osn{index}", Role.ORDERER)
                      for index in range(config.num_osns)]
        service_class = build_ordering_service(config.kind)
        self.orderer = service_class(self.context, config,
                                     self.channel_names, identities)

    def _wire_deliver_streams(self) -> None:
        if self.topology.gossip:
            self.peers[0].subscribe_to_orderer(
                self.orderer.osn_for(0).name)
            return
        for index, peer in enumerate(self.peers):
            peer.subscribe_to_orderer(self.orderer.osn_for(index).name)

    def _make_client(self, name: str, index: int, channel: str,
                     cohort: str = "") -> ClientNode:
        workload = self.workload_config
        anchor_names = [peer.name for peer in self.endorsing_peers]
        osn_names = self.orderer.node_names
        identity = self.ca.enroll(name, Role.CLIENT)
        # Failover lists: each client starts on its round-robin home
        # endpoint (preserving the non-fault assignment) and rotates
        # through the rest when attempts fail.
        anchors = [anchor_names[(index + k) % len(anchor_names)]
                   for k in range(len(anchor_names))]
        orderers = [osn_names[(index + k) % len(osn_names)]
                    for k in range(len(osn_names))]
        client = ClientNode(
            self.context, identity, channel, self.policies[channel],
            anchor_peer=anchors, orderer=orderers,
            ordering_timeout=workload.ordering_timeout,
            endorsement_timeout=workload.endorsement_timeout,
            max_resubmits=workload.max_resubmits,
            resubmit_backoff=workload.resubmit_backoff,
            resubmit_jitter=workload.resubmit_jitter,
            cohort=cohort)
        # Spread the OR round-robin start across clients so target
        # peers share load evenly in aggregate.
        client._or_counter = index
        self.msp.grant_channel_writer(channel, client.name)
        return client

    def _attach_observability(self) -> None:
        """Register every contended resource with the observability layer.

        Monitors are tagged with the pipeline phase they belong to, which is
        what :func:`~repro.obs.report.bottleneck_report` uses to attribute a
        saturated resource back to execute / order / validate.
        """
        obs = self.obs
        network = self.context.network
        for peer in self.peers:
            obs.watch_resource(peer.cpu, kind="cpu", phase="peer")
            obs.watch_resource(peer.disk, kind="disk", phase="validate")
            obs.watch_resource(peer.statedb, kind="statedb",
                               phase="validate")
            if peer.endorser is not None:
                obs.watch_resource(peer.endorser.slots, kind="pool",
                                   phase="execute")
            for channel in peer.channels:
                validator = peer.validator_for(channel)
                obs.watch_resource(validator.workers, kind="pool",
                                   phase="validate")
        for client in self.clients:
            obs.watch_resource(client.cpu, kind="cpu", phase="client")
        for machine in self.orderer.machines:
            obs.watch_resource(machine.cpu, kind="cpu", phase="order")
        for name in network.nodes:
            obs.watch_resource(network.nic(name), kind="nic",
                               phase="network")
            obs.watch_store(network.mailbox(name), phase="network")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every node process (idempotent)."""
        if self._started:
            return
        self._started = True
        for peer in self.peers:
            peer.start()
        self.orderer.start()
        for client in self.clients:
            client.start()
        if self.fault_injector is not None:
            self.fault_injector.start()

    def run_workload(self, drain: float = 5.0):
        """Start, stabilize, drive the workload, and aggregate metrics.

        Returns the :class:`~repro.metrics.collector.PhaseMetrics` over the
        measurement window (warmup and cooldown trimmed).
        """
        self.start()
        start_at = self.STABILIZATION
        self.workload.start(at=start_at)
        horizon = start_at + self.workload_config.duration + drain
        window_start = start_at + self.workload_config.warmup
        window_end = (start_at + self.workload_config.duration
                      - self.workload_config.cooldown)
        if self.obs is None:
            self.context.sim.run(until=horizon)
        else:
            self.obs.run(horizon, edges=(window_start, window_end))
        #: The measurement window, kept for windowed bottleneck reports.
        self.last_window = (window_start, window_end)
        self._export_statedb_counters()
        return self.context.metrics.aggregate(window_start, window_end)

    def _export_statedb_counters(self) -> None:
        """Snapshot every peer backend's op counters into the collector."""
        for peer in self.peers:
            for channel in peer.channels:
                ledger = peer.ledger_for(channel)
                self.context.metrics.set_counters(
                    f"statedb.{peer.name}.{channel}",
                    ledger.state.stats.as_dict())

    def cohort_metrics(self):
        """Per-cohort :class:`PhaseMetrics` for the last workload run.

        Only meaningful in population mode (transactions carry cohort
        tags); raises otherwise, and before any completed run.
        """
        window = getattr(self, "last_window", None)
        if window is None:
            raise ConfigurationError(
                "cohort_metrics() needs a completed run_workload() call")
        if self.workload_config.population is None:
            raise ConfigurationError(
                "cohort_metrics() needs workload.population (the "
                "aggregated client-population mode)")
        return self.context.metrics.aggregate_by_cohort(*window)

    def channel_metrics(self):
        """Per-channel :class:`PhaseMetrics` for the last workload run."""
        window = getattr(self, "last_window", None)
        if window is None:
            raise ConfigurationError(
                "channel_metrics() needs a completed run_workload() call")
        return self.context.metrics.aggregate_by_channel(*window)

    def statedb_counters(self) -> dict[str, int]:
        """Aggregate state-DB op counters summed across peers/channels."""
        totals: dict[str, int] = {}
        for peer in self.peers:
            for channel in peer.channels:
                stats = peer.ledger_for(channel).state.stats.as_dict()
                for name, value in stats.items():
                    totals[name] = totals.get(name, 0) + value
        return totals

    def bottleneck_report(self, start: float | None = None,
                          end: float | None = None):
        """The per-resource report for an observed run.

        Utilization, queue depth, and span statistics default to the
        measurement window of the last :meth:`run_workload` call (or the
        whole run if none completed); the Little's-law check always reads
        lifetime totals.  A custom edge must be a slice boundary of the
        run: a window edge, the horizon, or a multiple of
        ``sample_interval``.  Raises
        :class:`~repro.common.errors.ConfigurationError` for any other
        edge, and when the network was built without ``observe=True``.
        """
        if self.obs is None:
            raise ConfigurationError(
                "bottleneck_report() needs FabricNetwork(observe=True)")
        if start is None and end is None:
            start, end = getattr(self, "last_window", (None, None))
        return self.obs.report(start, end)

    def critical_path_report(self):
        """Aggregated critical-path attribution for committed txs."""
        if self.obs is None:
            raise ConfigurationError(
                "critical_path_report() needs FabricNetwork(observe=True)")
        return self.obs.critical_path_summary(self.context.metrics)

    def trace_summary(self, scenario: str = "trace",
                      phase_metrics=None) -> dict:
        """One JSON-ready object tying the run's telemetry together.

        Combines critical-path attribution, the per-resource report, and
        (when given) the aggregated phase metrics — the format
        ``repro trace --summary-out`` writes and ``repro obs-diff`` reads.
        """
        summary: dict = {"scenario": scenario}
        if phase_metrics is not None:
            summary["throughput_tps"] = phase_metrics.overall_throughput
            summary["avg_latency_s"] = phase_metrics.overall_latency
        summary["critical_path"] = self.critical_path_report().as_dict()
        summary["queueing"] = self.bottleneck_report().as_dict()
        return summary

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples)
    # ------------------------------------------------------------------

    @property
    def sim(self):
        return self.context.sim

    @property
    def metrics(self):
        return self.context.metrics

    def peer_named(self, name: str) -> PeerNode:
        for peer in self.peers:
            if peer.name == name:
                return peer
        raise ConfigurationError(f"no peer named {name!r}")

    def node_named(self, name: str):
        """Any node in the deployment by name (fault-injection resolver)."""
        for pool in (self.peers, self.clients, self.orderer.machines):
            for node in pool:
                if node.name == name:
                    return node
        raise ConfigurationError(f"no node named {name!r}")

    def _resolve_fault_alias(self, alias: str) -> str | None:
        """Resolve ``"@leader"`` to :attr:`OrderingService.leader`."""
        if alias != "@leader":
            return None
        return self.orderer.leader

    def recovery_report(self, fault_time: float, bucket: float = 0.5):
        """Recovery analysis for the last :meth:`run_workload` call.

        ``fault_time`` anchors the analysis (typically the schedule's first
        crash time plus :attr:`STABILIZATION`, since schedules run on the
        same clock as the workload).
        """
        window = getattr(self, "last_window", None)
        if window is None:
            raise ConfigurationError(
                "recovery_report() needs a completed run_workload() call")
        return compute_recovery(self.context.metrics, fault_time, window,
                                bucket=bucket)

    def assert_ledgers_consistent(self) -> None:
        """All peers hold identical, internally consistent chains, and
        peers at the same height hold the same world state (checked per
        channel, by :meth:`~repro.statedb.backend.StateBackend.state_hash`).
        """
        for channel in self.channel_names:
            reference = self.peers[0].ledger_for(channel)
            for peer in self.peers[1:]:
                ledger = peer.ledger_for(channel)
                height = min(reference.height, ledger.height)
                for number in range(height):
                    left = reference.blocks.get(number)
                    right = ledger.blocks.get(number)
                    if left.header_hash() != right.header_hash():
                        raise AssertionError(
                            f"fork at {channel}:{number}: "
                            f"{self.peers[0].name} vs {peer.name}")
            for peer in self.peers:
                if not peer.ledger_for(channel).blocks.verify_chain():
                    raise AssertionError(
                        f"{peer.name} chain {channel} fails verification")
            # height -> the first peer seen there and its state hash
            states: dict[int, tuple[str, str]] = {}
            for peer in self.peers:
                ledger = peer.ledger_for(channel)
                digest = ledger.state.state_hash()
                first, expected = states.setdefault(
                    ledger.height, (peer.name, digest))
                if digest != expected:
                    raise AssertionError(
                        f"state of {peer.name} on {channel} differs from "
                        f"{first}'s at height {ledger.height}")
