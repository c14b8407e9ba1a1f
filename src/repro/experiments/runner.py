"""Shared experiment execution: single points, sweeps, peak search."""

from __future__ import annotations

import dataclasses

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    StateDBConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.fabric.network import FabricNetwork
from repro.fabric.run import run_experiment
from repro.metrics.collector import PhaseMetrics
from repro.obs import BottleneckReport

#: Paper defaults for figures 2-7: 10 endorsing peers; AND means AND5.
DEFAULT_PEERS = 10
OR_POLICY = "OR10"
AND_POLICY = "AND5"

#: Default arrival rate for traced runs: past the AND5 validate-phase
#: capacity (~210-240 tps) but below what the ten workload clients can
#: generate, so the saturated resource is the validator pool rather than
#: the load generators themselves.
TRACE_RATE = 250.0

#: Slice interval of traced runs (simulated seconds): every monitor is
#: checkpointed this often, the resolution of the Chrome counter tracks.
TRACE_SAMPLE_INTERVAL = 0.05


@dataclasses.dataclass
class SweepPoint:
    """One (configuration, arrival rate) measurement."""

    orderer_kind: str
    policy: str
    peers: int
    rate: float
    metrics: PhaseMetrics

    @property
    def throughput(self) -> float:
        return self.metrics.overall_throughput

    @property
    def latency(self) -> float:
        return self.metrics.overall_latency


def make_topology(orderer_kind: str, policy: str, peers: int,
                  num_osns: int | None = None,
                  num_brokers: int = 3,
                  num_zookeepers: int = 3,
                  statedb: StateDBConfig | None = None) -> TopologyConfig:
    """Topology following the paper's §IV.A deployment."""
    if num_osns is None:
        num_osns = 1 if orderer_kind == "solo" else 3
    orderer = OrdererConfig(
        kind=orderer_kind, num_osns=num_osns,
        num_brokers=num_brokers, num_zookeepers=num_zookeepers,
        replication_factor=min(3, num_brokers))
    return TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(endorsement_policy=policy),
        orderer=orderer,
        statedb=statedb if statedb is not None else StateDBConfig())


def make_workload(rate: float, duration: float = 15.0) -> WorkloadConfig:
    """Paper workload: 1-byte transactions, 3 s ordering timeout."""
    return WorkloadConfig(arrival_rate=rate, duration=duration,
                          warmup=min(3.0, duration / 4),
                          cooldown=min(2.0, duration / 6), tx_size=1)


def run_point(orderer_kind: str, policy: str, rate: float,
              peers: int = DEFAULT_PEERS, duration: float = 15.0,
              seed: int = 1, workload_kind: str = "unique",
              **topology_kwargs) -> SweepPoint:
    """Run one measurement point."""
    topology = make_topology(orderer_kind, policy, peers, **topology_kwargs)
    workload = make_workload(rate, duration)
    metrics = run_experiment(topology, workload, seed=seed,
                             workload_kind=workload_kind)
    return SweepPoint(orderer_kind=orderer_kind, policy=policy, peers=peers,
                      rate=rate, metrics=metrics)


@dataclasses.dataclass
class TracedPoint:
    """One observed measurement: metrics plus bottleneck attribution."""

    orderer_kind: str
    policy: str
    peers: int
    rate: float
    metrics: PhaseMetrics
    report: BottleneckReport
    network: FabricNetwork

    @property
    def throughput(self) -> float:
        return self.metrics.overall_throughput

    def write_chrome_trace(self, path: str) -> None:
        """Dump the run's span trace as Chrome ``trace_event`` JSON."""
        self.network.obs.write_chrome_trace(path)


def run_traced_point(orderer_kind: str = "solo",
                     policy: str = AND_POLICY,
                     rate: float = TRACE_RATE,
                     peers: int = DEFAULT_PEERS,
                     duration: float = 15.0, seed: int = 1,
                     sample_interval: float = TRACE_SAMPLE_INTERVAL,
                     workload_kind: str = "unique",
                     **topology_kwargs) -> TracedPoint:
    """Run one measurement point with span tracing and monitors enabled.

    The defaults reproduce the paper's Fig. 5 bottleneck: a Solo network
    under the AND5 policy driven past the validate phase's capacity, where
    the report names the validator worker pool as the saturated resource.
    """
    topology = make_topology(orderer_kind, policy, peers, **topology_kwargs)
    workload = make_workload(rate, duration)
    network = FabricNetwork(topology, workload, seed=seed, observe=True,
                            sample_interval=sample_interval,
                            workload_kind=workload_kind)
    metrics = network.run_workload()
    report = network.bottleneck_report()
    return TracedPoint(orderer_kind=orderer_kind, policy=policy,
                       peers=peers, rate=rate, metrics=metrics,
                       report=report, network=network)


def search_peak(orderer_kind: str, policy: str, peers: int,
                rates: list[float], duration: float = 15.0,
                seed: int = 1, workload_kind: str = "unique",
                **topology_kwargs) -> tuple[float, list[SweepPoint]]:
    """Sweep ``rates`` and return (peak throughput, all points).

    The paper reports peak throughput per configuration (Table II); the peak
    is the maximum committed rate over the sweep.
    """
    points = [run_point(orderer_kind, policy, rate, peers=peers,
                        duration=duration, seed=seed,
                        workload_kind=workload_kind, **topology_kwargs)
              for rate in rates]
    peak = max(point.throughput for point in points)
    return peak, points
