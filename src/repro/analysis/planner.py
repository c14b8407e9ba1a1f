"""Capacity planner: invert the phase model over a configuration grid.

The phase model answers "what does this deployment do at this load?" in
closed form; the planner runs that question backwards — *what peers ×
channels × batch configuration sustains a target throughput under a p95
latency bound?* — by sweeping a deployment grid and screening each
configuration with one utilization sweep (:meth:`PhaseModel
.peak_utilization`, microseconds) before paying for latency quantiles on
the survivors.  No simulation runs anywhere: a full plan over several
hundred configurations completes in well under a second, which is the
point — the planner is the interactive front end to the model, and the
simulator is the slow oracle you graduate to for the chosen config.

Preference order: fewest peers, then fewest channels (machines cost more
than channels), then lowest predicted p95 among the batch configurations
that fit.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.analysis.phase_model import PhaseModel
from repro.common.config import (
    ChannelConfig,
    LoadSlice,
    OrdererConfig,
    StateDBConfig,
    TopologyConfig,
    WorkloadConfig,
    plan_load,
)

__all__ = ["PlanOption", "CapacityPlan", "plan_capacity"]

PEER_GRID = (2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64)
CHANNEL_GRID = (1, 2, 4, 8)
BATCH_SIZE_GRID = (50, 100, 200, 500)
BATCH_TIMEOUT_GRID = (0.25, 0.5, 1.0, 2.0)

#: Keep the plan's peak station utilization at or below this: a config
#: "sustains" the target only with margin against the approximations.
DEFAULT_HEADROOM = 0.9


@dataclasses.dataclass(frozen=True)
class PlanOption:
    """One evaluated deployment configuration and its predictions."""

    peers: int
    channels: int
    batch_size: int
    batch_timeout: float
    clients: int
    peak_utilization: float
    p50: float
    p95: float
    #: Filled from the full saturation search for the chosen option;
    #: screening-only options estimate it from the utilization screen.
    capacity: float = math.inf
    bottleneck: str = ""

    def as_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class CapacityPlan:
    """The planner's answer: the chosen configuration plus context."""

    target_tps: float
    max_p95: float | None
    policy: str
    orderer_kind: str
    statedb_kind: str
    best: PlanOption | None
    #: Other batch configurations that also fit at the chosen scale.
    alternatives: list[PlanOption]
    #: The nearest miss when nothing fits (lowest peak utilization seen).
    closest: PlanOption | None
    evaluated: int

    @property
    def feasible(self) -> bool:
        return self.best is not None

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "target_tps": self.target_tps,
            "max_p95": self.max_p95,
            "policy": self.policy,
            "orderer_kind": self.orderer_kind,
            "statedb_kind": self.statedb_kind,
            "feasible": self.feasible,
            "evaluated": self.evaluated,
            "best": self.best.as_dict() if self.best else None,
            "alternatives": [option.as_dict()
                             for option in self.alternatives],
            "closest": self.closest.as_dict() if self.closest else None,
        }

    def render(self) -> str:
        bound = (f", p95 <= {self.max_p95:g} s" if self.max_p95 is not None
                 else "")
        lines = [f"capacity plan: {self.target_tps:g} tx/s{bound} "
                 f"({self.orderer_kind}, {self.policy}, "
                 f"{self.statedb_kind}; {self.evaluated} configs examined)"]
        if self.best is None:
            lines.append("  INFEASIBLE within the search grid")
            if self.closest is not None:
                option = self.closest
                lines.append(
                    f"  closest: {option.peers} peers x {option.channels} "
                    f"channel(s), batch {option.batch_size}/"
                    f"{option.batch_timeout:g}s -> peak utilization "
                    f"{option.peak_utilization:.2f}, p95 {option.p95:.3f} s")
            return "\n".join(lines)
        best = self.best
        lines.append(
            f"  best: {best.peers} peers x {best.channels} channel(s), "
            f"batch size {best.batch_size}, timeout "
            f"{best.batch_timeout:g} s, {best.clients} clients")
        lines.append(
            f"        capacity {best.capacity:.0f} tx/s "
            f"(bottleneck {best.bottleneck}), peak utilization "
            f"{best.peak_utilization:.2f}, p50 {best.p50:.3f} s, "
            f"p95 {best.p95:.3f} s")
        for option in self.alternatives:
            lines.append(
                f"  also fits: batch {option.batch_size}/"
                f"{option.batch_timeout:g}s -> p95 {option.p95:.3f} s")
        return "\n".join(lines)


def _plan_topology(peers: int, channels: int, policy: str,
                   orderer_kind: str, statedb_kind: str,
                   batch_size: int, batch_timeout: float) -> TopologyConfig:
    """The candidate deployment: ``channels`` uniform-policy channels."""
    if statedb_kind == "couchdb":
        # The representative tuned CouchDB deployment (Thakkar toggles on).
        statedb = StateDBConfig(kind="couchdb", cache=True, bulk=True)
    else:
        statedb = StateDBConfig(kind=statedb_kind)
    extra = [ChannelConfig(name=f"ch{index}", endorsement_policy=policy)
             for index in range(2, channels + 1)]
    return TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(name="ch1", endorsement_policy=policy),
        extra_channels=extra,
        orderer=OrdererConfig(kind=orderer_kind,
                              num_osns=1 if orderer_kind == "solo" else 3,
                              batch_size=batch_size,
                              batch_timeout=batch_timeout),
        statedb=statedb)


def plan_capacity(target_tps: float,
                  max_p95: float | None = None,
                  policy: str = "OR(1..n)",
                  orderer_kind: str = "solo",
                  statedb_kind: str = "leveldb",
                  peer_grid: typing.Sequence[int] = PEER_GRID,
                  channel_grid: typing.Sequence[int] = CHANNEL_GRID,
                  batch_size_grid: typing.Sequence[int] = BATCH_SIZE_GRID,
                  batch_timeout_grid: typing.Sequence[float]
                  = BATCH_TIMEOUT_GRID,
                  headroom: float = DEFAULT_HEADROOM,
                  workload_kind: str = "unique") -> CapacityPlan:
    """Find the smallest deployment sustaining ``target_tps``.

    Scans (peers, channels) in increasing-cost order and stops at the
    first scale where some batch configuration fits; among those, lowest
    predicted p95 wins.  ``max_p95`` of ``None`` plans for throughput
    alone.  Closed-form throughout — no simulation.
    """
    if target_tps <= 0:
        raise ValueError("target_tps must be positive")
    # Enough client processes that the client stage is never the design
    # constraint (the planner sizes the fabric, not the load generator).
    clients = max(max(channel_grid), max(peer_grid),
                  math.ceil(target_tps / 40.0))
    workload = WorkloadConfig(arrival_rate=target_tps, duration=10.0,
                              num_clients=clients)
    evaluated = 0
    closest: PlanOption | None = None
    # With num_clients fixed, the load plan depends only on the channels.
    plans: dict[int, list[LoadSlice]] = {}

    for peers in sorted(peer_grid):
        for channels in sorted(channel_grid):
            fits: list[tuple[PlanOption, PhaseModel]] = []
            for batch_size in batch_size_grid:
                for batch_timeout in batch_timeout_grid:
                    topology = _plan_topology(
                        peers, channels, policy, orderer_kind,
                        statedb_kind, batch_size, batch_timeout)
                    plan = plans.get(channels)
                    if plan is None:
                        topology.validate(workload)
                        plan = plans[channels] = plan_load(
                            topology, workload, workload_kind)
                    model = PhaseModel(topology, workload,
                                       workload_kind=workload_kind,
                                       plan=plan)
                    evaluated += 1
                    peak = model.peak_utilization()
                    if peak > headroom:
                        if closest is None or (
                                peak < closest.peak_utilization):
                            closest = PlanOption(
                                peers=peers, channels=channels,
                                batch_size=batch_size,
                                batch_timeout=batch_timeout,
                                clients=clients, peak_utilization=peak,
                                p50=math.inf, p95=math.inf)
                        continue
                    latency = model.predict(with_capacity=False).latency
                    option = PlanOption(
                        peers=peers, channels=channels,
                        batch_size=batch_size,
                        batch_timeout=batch_timeout, clients=clients,
                        peak_utilization=peak, p50=latency.p50,
                        p95=latency.p95)
                    if max_p95 is not None and latency.p95 > max_p95:
                        if closest is None or (
                                peak < closest.peak_utilization):
                            closest = option
                        continue
                    fits.append((option, model))
            if fits:
                fits.sort(key=lambda pair: pair[0].p95)
                best_option, best_model = fits[0]
                # The winner gets the full saturation search for its
                # capacity number and bottleneck attribution.
                full = best_model.predict()
                best_option = dataclasses.replace(
                    best_option, capacity=full.capacity,
                    bottleneck=full.bottleneck)
                return CapacityPlan(
                    target_tps=target_tps, max_p95=max_p95, policy=policy,
                    orderer_kind=orderer_kind, statedb_kind=statedb_kind,
                    best=best_option,
                    alternatives=[option for option, _model in fits[1:4]],
                    closest=None, evaluated=evaluated)
    return CapacityPlan(
        target_tps=target_tps, max_p95=max_p95, policy=policy,
        orderer_kind=orderer_kind, statedb_kind=statedb_kind,
        best=None, alternatives=[], closest=closest, evaluated=evaluated)
