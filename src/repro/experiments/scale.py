"""Scale-out characterization: peers x channels x population size.

Nguyen et al. (arXiv:2107.09886) characterise Fabric at network sizes the
original paper never reaches — hundreds of peers, many channels, client
populations far beyond what one load generator can emulate.  This module
reproduces that style of experiment on the simulator:

- topologies with 100+ peers stay practical because only a small endorsing
  core serves proposals (the rest are committing-only peers) and block
  dissemination runs over the relay-tree gossip
  (:func:`repro.peer.gossip.relay_children`) with bounded per-node fan-out;
- client load comes from aggregated user cohorts
  (:func:`repro.common.config.plan_load`, driven by
  :class:`repro.client.workload.WorkloadGenerator`), so a 1,000,000-user
  run spawns O(cohorts) kernel processes, not O(users);
- every point reports per-cohort and per-channel
  :class:`~repro.metrics.collector.PhaseMetrics`, plus bottleneck
  attribution naming the saturated resource.

CLI::

    repro scale                          # full sweep (incl. the 1M-user,
                                         # 100-peer, 4-channel point)
    repro scale --smoke                  # CI-sized sweep
    repro scale --peers 100 --channels 4 --users 1000000   # one point
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    PopulationConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.experiments.farm import run_farm
from repro.fabric.network import FabricNetwork
from repro.metrics.collector import PhaseMetrics

#: Endorsing core size: proposals are served by at most this many peers
#: regardless of the topology's total peer count (the paper's ten-peer
#: deployment), so adding peers exercises dissemination and commit — the
#: dimension Nguyen et al. scale — not the endorsement pool.
ENDORSING_CORE = 10

#: Relay-tree fan-out for scale topologies: each peer forwards a block to
#: at most this many children, keeping leader egress bounded at any size.
GOSSIP_FANOUT = 4


def make_scale_topology(peers: int, channels: int,
                        endorsing: int = ENDORSING_CORE,
                        gossip_fanout: int = GOSSIP_FANOUT,
                        orderer_kind: str = "raft") -> TopologyConfig:
    """A scale-out deployment: small endorsing core, committing fleet.

    Channels are named ``ch1..chN`` and every peer joins all of them.
    Block dissemination uses leader-peer gossip over an N-ary relay tree
    (one deliver stream from the ordering service, bounded fan-out below).
    """
    endorsing = min(peers, endorsing)
    extra = [ChannelConfig(name=f"ch{index}",
                           endorsement_policy="OR(1..n)")
             for index in range(2, channels + 1)]
    return TopologyConfig(
        num_endorsing_peers=endorsing,
        num_committing_only_peers=peers - endorsing,
        channel=ChannelConfig(name="ch1", endorsement_policy="OR(1..n)"),
        extra_channels=extra,
        gossip=True,
        gossip_fanout=gossip_fanout,
        orderer=OrdererConfig(kind=orderer_kind,
                              num_osns=1 if orderer_kind == "solo" else 3))


def make_scale_workload(users: int, rate: float, duration: float,
                        cohorts_per_channel: int = 2) -> WorkloadConfig:
    """An aggregated-population workload at ``rate`` tx/s total."""
    return WorkloadConfig(
        arrival_rate=rate, duration=duration,
        warmup=min(3.0, duration / 4), cooldown=min(2.0, duration / 6),
        tx_size=1,
        population=PopulationConfig(
            num_users=users, cohorts_per_channel=cohorts_per_channel))


@dataclasses.dataclass
class ScalePoint:
    """One (peers, channels, users) measurement."""

    peers: int
    channels: int
    users: int
    cohorts: int            # cohorts_per_channel x channels, configured
    clients: int            # client nodes built — must equal ``cohorts``
    rate: float
    duration: float
    seed: int
    wall_s: float
    events: int
    metrics: PhaseMetrics
    per_cohort: dict[str, PhaseMetrics]
    per_channel: dict[str, PhaseMetrics]
    #: cohort name -> the channel its slice drives.
    cohort_channels: dict[str, str] = dataclasses.field(default_factory=dict)
    bottleneck: str = ""

    @property
    def throughput(self) -> float:
        return self.metrics.overall_throughput

    @property
    def latency(self) -> float:
        return self.metrics.overall_latency

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "peers": self.peers, "channels": self.channels,
            "users": self.users, "cohorts": self.cohorts,
            "clients": self.clients, "rate": self.rate,
            "duration": self.duration, "seed": self.seed,
            "wall_s": round(self.wall_s, 4), "events": self.events,
            "throughput_tps": round(self.throughput, 2),
            "avg_latency_s": round(self.latency, 4),
            "bottleneck": self.bottleneck,
            "per_cohort": {name: round(m.overall_throughput, 2)
                           for name, m in sorted(self.per_cohort.items())},
            "per_channel": {name: round(m.overall_throughput, 2)
                            for name, m in sorted(self.per_channel.items())},
        }


def run_scale_point(peers: int = 100, channels: int = 4,
                    users: int = 1_000_000, rate: float = 150.0,
                    duration: float = 8.0, cohorts_per_channel: int = 2,
                    seed: int = 1, orderer_kind: str = "raft",
                    observe: bool = True) -> ScalePoint:
    """Run one scale point and collect its per-cohort accounting."""
    topology = make_scale_topology(peers, channels,
                                   orderer_kind=orderer_kind)
    workload = make_scale_workload(users, rate, duration,
                                   cohorts_per_channel=cohorts_per_channel)
    network = FabricNetwork(topology, workload, seed=seed, observe=observe)
    # Wall-clock reads never feed back into the simulation; they are the
    # quantity this harness reports.
    started = time.perf_counter()  # simlint: disable=SL002
    metrics = network.run_workload()
    wall = time.perf_counter() - started  # simlint: disable=SL002
    bottleneck = ""
    if observe:
        report = network.bottleneck_report()
        if report.bottleneck is not None:
            top = report.bottleneck
            bottleneck = (f"{top.name} ({top.phase or '-'}, "
                          f"{top.utilization:.0%} busy)")
    return ScalePoint(
        peers=peers, channels=channels, users=users,
        cohorts=cohorts_per_channel * channels,
        clients=len(network.clients),
        rate=rate, duration=duration, seed=seed, wall_s=wall,
        events=network.sim.events_processed, metrics=metrics,
        per_cohort=network.cohort_metrics(),
        per_channel=network.channel_metrics(),
        cohort_channels={load.name: load.channel for load in network.plan},
        bottleneck=bottleneck)


#: The sweep grids: (peers, channels, users, rate).  The full grid varies
#: one dimension at a time around the acceptance point (100 peers, 4
#: channels, 1M users) so the table shows each scaling trend in isolation.
FULL_GRID: list[tuple[int, int, int, float]] = [
    (20, 4, 1_000_000, 150.0),
    (60, 4, 1_000_000, 150.0),
    (100, 4, 1_000_000, 150.0),
    (100, 1, 1_000_000, 150.0),
    (100, 8, 1_000_000, 150.0),
    (100, 4, 10_000, 150.0),
]

SMOKE_GRID: list[tuple[int, int, int, float]] = [
    (8, 2, 100_000, 40.0),
    (16, 2, 1_000_000, 40.0),
]

#: Durations per mode: long enough for a stable window, short enough that
#: the 100-peer points stay tractable for a pure-Python event loop.
FULL_DURATION = 8.0
SMOKE_DURATION = 4.0


@dataclasses.dataclass
class ScaleSweep:
    """All points of one ``repro scale`` invocation."""

    points: list[ScalePoint]
    mode: str
    seed: int

    @property
    def ok(self) -> bool:
        """Sanity gates the sweep must satisfy (CI smoke check).

        Every point commits transactions, reports metrics for every
        cohort, and builds exactly one client per cohort — the O(cohorts)
        process guarantee that makes population size a pure parameter.
        """
        return all(point.throughput > 0
                   and point.clients == point.cohorts
                   and len(point.per_cohort) == point.cohorts
                   for point in self.points)

    def as_dict(self) -> dict[str, typing.Any]:
        return {"mode": self.mode, "seed": self.seed,
                "points": [point.as_dict() for point in self.points]}

    def render(self) -> str:
        header = (f"{'peers':>5}  {'chans':>5}  {'users':>9}  "
                  f"{'cohorts':>7}  {'tps':>7}  {'lat_s':>6}  "
                  f"{'wall_s':>7}  bottleneck")
        lines = [f"scale sweep ({self.mode}, seed {self.seed}); load is "
                 f"aggregated superposed-Poisson — one kernel process per "
                 f"cohort, never per user", header]
        for point in self.points:
            lines.append(
                f"{point.peers:>5}  {point.channels:>5}  "
                f"{point.users:>9}  {point.cohorts:>7}  "
                f"{point.throughput:>7.1f}  {point.latency:>6.3f}  "
                f"{point.wall_s:>7.2f}  {point.bottleneck}")
        verdict = "ok" if self.ok else "FAILED"
        lines.append(f"scale: O(cohorts) client check + per-cohort "
                     f"metrics coverage: {verdict}")
        return "\n".join(lines)


def _point_worker(task: dict) -> ScalePoint:
    """Farm worker: one sweep point from its explicit keyword task."""
    return run_scale_point(**task)


def run_scale_sweep(mode: str = "full", seed: int = 1,
                    observe: bool = True, jobs: int = 1) -> ScaleSweep:
    """Sweep peers x channels x population size.

    ``jobs > 1`` farms grid points across processes; point order and
    metrics are identical to a sequential sweep.
    """
    if mode == "full":
        grid, duration = FULL_GRID, FULL_DURATION
    elif mode == "smoke":
        grid, duration = SMOKE_GRID, SMOKE_DURATION
    else:
        raise ValueError(f"unknown scale mode {mode!r}")
    tasks = [dict(peers=peers, channels=channels, users=users,
                  rate=rate, duration=duration, seed=seed, observe=observe)
             for peers, channels, users, rate in grid]
    labels = [f"{t['peers']}p-{t['channels']}c-{t['users']}u" for t in tasks]
    points = run_farm(_point_worker, tasks, jobs=jobs, labels=labels)
    return ScaleSweep(points=points, mode=mode, seed=seed)
