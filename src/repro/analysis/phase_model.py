"""Stochastic phase model: the pipeline as a network of queueing stations.

The repository's one closed-form model of Fabric, after Wang & Chu's
phase decomposition.  It composes the whole execute–order–validate
pipeline from two-moment queueing stations and produces latency
*distributions* — p50/p95/p99 per channel and per phase — plus a
station-by-station utilization and capacity account, the system capacity,
and the bottleneck station, in closed form:

- **execute** — each client process is an M/G/1 on its SDK event loop;
  endorsing peers are shared across channels, so each peer's proposal
  stream sums every channel whose policy names it (AND fans one
  transaction to all its targets, OR spreads across them), served by an
  M/G/c over the peer's endorser slots (Allen–Cunneen);
- **order** — OSN envelope handling is an M/G/c over orderer cores; block
  formation contributes the residual wait of the cutting window
  ``min(batch_size/λ, batch_timeout)`` — uniform over the window, which is
  exactly the BatchSize/BatchTimeout crossover the paper sweeps — plus a
  consensus round trip per orderer kind;
- **validate** — each (peer, channel) runs a serial block pipeline
  (matching the simulator's per-channel :class:`BlockValidator`), a
  G/G/1 in *blocks* whose service spreads VSCC over the worker pool and
  serialises MVCC, the ledger fsync, and the state-database batch.  Block
  cutting makes arrivals far more regular than Poisson, so the wait is
  Kingman's with the block gap's SCV; in the timeout-cutting regime the
  Poisson block-size variance feeds the service SCV.

Cross-channel coupling appears twice: in the endorser-slot arrivals and
in three shared per-peer stations (CPU, commit disk, the serial state-DB)
that bound aggregate capacity even though each channel's block pipeline is
private.  System capacity is the first station to saturate as the offered
load scales with channel shares held fixed; block sizes re-solve along the
way, so a channel cutting on timeout at low load correctly cuts full
blocks near saturation.

Latency quantiles come from a lognormal matched to each phase's first two
moments; waits carry an atom at zero (the probability of no queueing) with
an exponential conditional tail — the standard M/G/1 heavy-traffic shape.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.analysis.fit import CostFit, ServiceMoments
from repro.analysis.queueing import gg1_wait, mgc_wait, mmc_erlang_c
from repro.analysis.workload import (
    ChannelDemand,
    offered_rate,
    resolve_demands,
)
from repro.common.config import LoadSlice, TopologyConfig, WorkloadConfig
from repro.metrics.stats import lognormal_quantile
from repro.runtime.costs import CostModel

__all__ = ["WaitDistribution", "PhaseLatency", "StationLoad",
           "ChannelPrediction", "SystemPrediction", "PhaseModel"]


@dataclasses.dataclass(frozen=True)
class WaitDistribution:
    """A queueing delay: an atom at zero plus an exponential tail.

    ``probability`` is P(wait > 0); ``conditional_mean`` is E[W | W > 0].
    The exponential conditional is the classical heavy-traffic shape of
    M/G/1 and M/M/c waits, and gives closed-form quantiles: the q-th
    quantile is zero while q stays inside the atom and
    ``conditional_mean * ln(probability / (1 - q))`` beyond it.
    """

    probability: float
    conditional_mean: float

    @property
    def mean(self) -> float:
        return self.probability * self.conditional_mean

    @property
    def var(self) -> float:
        if not math.isfinite(self.conditional_mean):
            return math.inf
        second = 2.0 * self.probability * self.conditional_mean ** 2
        return second - self.mean ** 2

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile probability {q} must be in (0, 1)")
        if not math.isfinite(self.conditional_mean):
            return math.inf
        if q <= 1.0 - self.probability or self.probability <= 0:
            return 0.0
        return self.conditional_mean * math.log(
            self.probability / (1.0 - q))

    @classmethod
    def none(cls) -> "WaitDistribution":
        return cls(probability=0.0, conditional_mean=0.0)

    @classmethod
    def saturated(cls) -> "WaitDistribution":
        return cls(probability=1.0, conditional_mean=math.inf)

    @classmethod
    def mg1(cls, arrival_rate: float,
            service: ServiceMoments) -> "WaitDistribution":
        """M/G/1 wait (Pollaczek–Khinchine mean, P(wait) = ρ)."""
        return cls.gg1(arrival_rate, 1.0, service)

    @classmethod
    def gg1(cls, arrival_rate: float, arrival_scv: float,
            service: ServiceMoments) -> "WaitDistribution":
        """G/G/1 wait (Kingman mean, P(wait) = ρ)."""
        if arrival_rate <= 0 or service.mean <= 0:
            return cls.none()
        rho = arrival_rate * service.mean
        if rho >= 1:
            return cls.saturated()
        wait = gg1_wait(arrival_rate, arrival_scv, service.mean, service.scv)
        return cls(probability=rho, conditional_mean=wait / rho)

    @classmethod
    def mgc(cls, arrival_rate: float, service: ServiceMoments,
            servers: int) -> "WaitDistribution":
        """M/G/c wait (Allen–Cunneen mean, P(wait) = Erlang-C)."""
        if arrival_rate <= 0 or service.mean <= 0:
            return cls.none()
        if arrival_rate * service.mean / servers >= 1:
            return cls.saturated()
        wait = mgc_wait(arrival_rate, service.mean, service.scv, servers)
        wait_probability = mmc_erlang_c(arrival_rate, 1.0 / service.mean,
                                        servers)
        if wait_probability <= 0:
            return cls.none()
        return cls(probability=wait_probability,
                   conditional_mean=wait / wait_probability)


@dataclasses.dataclass(frozen=True)
class PhaseLatency:
    """A latency distribution summarised by two moments and quantiles."""

    mean: float
    var: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_moments(cls, mean: float, var: float) -> "PhaseLatency":
        """Quantiles from the lognormal matching (mean, variance)."""
        if not math.isfinite(mean) or not math.isfinite(var):
            return cls(mean=math.inf, var=math.inf, p50=math.inf,
                       p95=math.inf, p99=math.inf)
        mean = max(mean, 0.0)
        var = max(var, 0.0)
        return cls(mean=mean, var=var,
                   p50=lognormal_quantile(mean, var, 0.50),
                   p95=lognormal_quantile(mean, var, 0.95),
                   p99=lognormal_quantile(mean, var, 0.99))

    @classmethod
    def mixture(cls, components: typing.Sequence[
            tuple[float, "PhaseLatency"]]) -> "PhaseLatency":
        """Rate-weighted mixture of per-channel phase latencies."""
        total = sum(weight for weight, _latency in components)
        if total <= 0:
            return cls.from_moments(0.0, 0.0)
        if any(not math.isfinite(latency.mean)
               for weight, latency in components if weight > 0):
            return cls.from_moments(math.inf, math.inf)
        mean = sum(weight * latency.mean
                   for weight, latency in components) / total
        second = sum(weight * (latency.var + latency.mean ** 2)
                     for weight, latency in components) / total
        return cls.from_moments(mean, max(0.0, second - mean * mean))

    def as_dict(self) -> dict[str, float]:
        return {"mean": self.mean, "p50": self.p50, "p95": self.p95,
                "p99": self.p99}


@dataclasses.dataclass(frozen=True)
class StationLoad:
    """One station's load at the offered rate, and where it saturates."""

    name: str
    #: Utilization in [0, inf) at the current offered load.
    utilization: float
    #: Total system tx/s at which this station reaches ρ = 1, scaling the
    #: offered load with per-channel shares held fixed.
    capacity: float

    def as_dict(self) -> dict[str, typing.Any]:
        return {"name": self.name, "utilization": self.utilization,
                "capacity": self.capacity}


@dataclasses.dataclass(frozen=True)
class ChannelPrediction:
    """One channel's predicted per-phase latency distributions."""

    channel: str
    rate: float
    endorsements: int
    block_size: float
    formation_window: float
    execute: PhaseLatency
    order: PhaseLatency
    validate: PhaseLatency
    total: PhaseLatency

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "channel": self.channel,
            "rate": self.rate,
            "endorsements": self.endorsements,
            "block_size": self.block_size,
            "formation_window": self.formation_window,
            "execute": self.execute.as_dict(),
            "order": self.order.as_dict(),
            "validate": self.validate.as_dict(),
            "total": self.total.as_dict(),
        }


@dataclasses.dataclass(frozen=True)
class SystemPrediction:
    """The model's full output for one deployment at one offered load."""

    channels: list[ChannelPrediction]
    stations: list[StationLoad]
    offered: float
    capacity: float
    bottleneck: str

    @property
    def throughput(self) -> float:
        """Sustained commit rate: offered load clipped at capacity."""
        return min(self.offered, self.capacity)

    @property
    def saturated(self) -> bool:
        return self.offered >= self.capacity

    def _aggregate(self, phase: str) -> PhaseLatency:
        return PhaseLatency.mixture(
            [(channel.rate, getattr(channel, phase))
             for channel in self.channels if channel.rate > 0])

    @property
    def latency(self) -> PhaseLatency:
        """End-to-end latency mixed across channels by rate."""
        return self._aggregate("total")

    @property
    def execute(self) -> PhaseLatency:
        return self._aggregate("execute")

    @property
    def order(self) -> PhaseLatency:
        return self._aggregate("order")

    @property
    def validate(self) -> PhaseLatency:
        return self._aggregate("validate")

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "offered": self.offered,
            "capacity": self.capacity,
            "throughput": self.throughput,
            "bottleneck": self.bottleneck,
            "latency": self.latency.as_dict(),
            "execute": self.execute.as_dict(),
            "order": self.order.as_dict(),
            "validate": self.validate.as_dict(),
            "stations": [station.as_dict() for station in self.stations],
            "channels": [channel.as_dict() for channel in self.channels],
        }


def _reads_per_tx(demand: ChannelDemand) -> float:
    """Validation-time state reads per tx implied by the workload shape."""
    return 1.0 if demand.workload == "conflict" else 0.0


class PhaseModel:
    """Composes the per-phase stations for one deployment configuration.

    Build it from the same :class:`TopologyConfig` / :class:`WorkloadConfig`
    pair (and, optionally, the same :class:`~repro.runtime.costs.CostModel`)
    a :class:`~repro.fabric.network.FabricNetwork` consumes; services come
    from a :class:`CostFit` over those costs and the topology's state-DB
    backend.  :meth:`predict` is closed-form — microseconds per call, no
    simulation.
    """

    def __init__(self, topology: TopologyConfig,
                 workload: WorkloadConfig,
                 costs: CostModel | None = None,
                 workload_kind: str = "unique",
                 plan: list[LoadSlice] | None = None) -> None:
        self.topology = topology
        self.workload = workload
        self.fit = CostFit(costs, topology.statedb)
        # ``plan``: the load plan, when the caller built it (see
        # :func:`~repro.analysis.workload.resolve_demands`).
        self.demands = resolve_demands(topology, workload, workload_kind,
                                       plan)

    # -- per-channel block cutting --------------------------------------

    def _block_size(self, rate: float) -> tuple[float, float]:
        """Expected block size and its variance at a channel rate.

        Below the crossover (``rate * timeout < size``) blocks cut on
        timeout and the size is Poisson with mean ``rate * timeout``;
        above it blocks fill to ``batch_size`` deterministically.
        """
        orderer = self.topology.orderer
        pending = rate * orderer.batch_timeout
        if pending >= orderer.batch_size:
            return float(orderer.batch_size), 0.0
        return max(1.0, pending), pending

    def _block_arrival_scv(self, rate: float) -> float:
        """SCV of the gap between a channel's blocks (validate's ca²).

        A size-cut block closes on every ``batch_size``-th Poisson
        arrival, an Erlang gap with SCV ``1/batch_size``; a timeout-cut
        block closes ``batch_timeout`` after the first pending arrival, a
        gap ``T + Exp(λ)`` with SCV ``(1/λ)² / (T + 1/λ)²``.
        """
        orderer = self.topology.orderer
        if rate <= 0:
            return 1.0
        if rate * orderer.batch_timeout >= orderer.batch_size:
            return 1.0 / orderer.batch_size
        idle = 1.0 / rate
        return (idle / (orderer.batch_timeout + idle)) ** 2

    def _formation_window(self, rate: float) -> float:
        orderer = self.topology.orderer
        if rate <= 0:
            return orderer.batch_timeout
        return min(orderer.batch_size / rate, orderer.batch_timeout)

    # -- shared arrival processes ---------------------------------------

    def _endorser_arrivals(self, scale: float = 1.0) -> dict[str, float]:
        """Proposals/s arriving at each endorsing peer, channels summed."""
        arrivals: dict[str, float] = {}
        for demand in self.demands:
            rate = demand.rate * scale
            if rate <= 0 or demand.targets == 0:
                continue
            share = rate * demand.endorsements / demand.targets
            for principal in demand.policy.principals():
                arrivals[principal] = arrivals.get(principal, 0.0) + share
        return arrivals

    def _block_service(self, demand: ChannelDemand,
                       rate: float) -> tuple[ServiceMoments, float, float]:
        """(block service moments, block size, block arrival rate)."""
        size, size_var = self._block_size(rate)
        base = self.fit.validate_block_service(size, demand.endorsements,
                                               _reads_per_tx(demand))
        marginal = self.fit.validate_per_tx_marginal(demand.endorsements,
                                                     _reads_per_tx(demand))
        var = base.var + marginal * marginal * size_var
        scv = var / (base.mean * base.mean) if base.mean > 0 else 0.0
        return (ServiceMoments(base.mean, scv), size,
                rate / size if rate > 0 else 0.0)

    # -- station utilizations -------------------------------------------

    def _station_utilizations(self, scale: float) -> dict[str, float]:
        """Utilization of every station with all rates scaled by ``scale``.

        Block sizes are re-solved at the scaled rate, so the
        timeout-vs-size cutting regime tracks the load — the property that
        makes the saturation search honest for timeout-regime channels.
        """
        fit = self.fit
        costs = fit.costs
        util: dict[str, float] = {}

        # Client SDK event loops, per channel.
        client_mean = fit.client_service().mean
        for demand in self.demands:
            rate = demand.rate * scale
            if rate <= 0:
                continue
            if demand.clients == 0:
                util[f"client:{demand.channel}"] = math.inf
                continue
            util[f"client:{demand.channel}"] = (
                rate / demand.clients * client_mean)

        # Endorser slots: the busiest peer binds.
        arrivals = self._endorser_arrivals(scale)
        slots = min(costs.endorser_concurrency, costs.peer_cores)
        busiest = max(arrivals.values(), default=0.0)
        util["endorse"] = busiest * fit.endorse_service().mean / slots

        # OSN envelope handling + block signing.
        envelope = fit.order_envelope_service().mean
        osn_cpu = offered_rate(self.demands) * scale * envelope
        for demand in self.demands:
            rate = demand.rate * scale
            if rate <= 0:
                continue
            _service, _size, blocks = self._block_service(demand, rate)
            osn_cpu += blocks * costs.block_sign_cpu
        util["order.cpu"] = osn_cpu / costs.orderer_cores

        # Per-(peer, channel) serial block pipelines, plus the three
        # peer-wide shared resources the pipelines compete over.
        peer_cpu = busiest * costs.endorse_cpu
        peer_disk = 0.0
        peer_statedb = 0.0
        for demand in self.demands:
            rate = demand.rate * scale
            if rate <= 0:
                continue
            service, size, blocks = self._block_service(demand, rate)
            util[f"validate:{demand.channel}"] = blocks * service.mean
            peer_cpu += (rate * fit.validate_cpu_per_tx(demand.endorsements)
                         + blocks * costs.block_verify_cpu)
            peer_disk += blocks * costs.commit_per_block_io
            peer_statedb += blocks * fit.statedb_block_io(
                size, _reads_per_tx(demand))
        util["peer.cpu"] = peer_cpu / costs.peer_cores
        util["peer.disk"] = peer_disk
        util["peer.statedb"] = peer_statedb
        return util

    def _stations(self) -> tuple[list[StationLoad], float, str]:
        """Station loads at the offered rate, system capacity, bottleneck.

        Capacity per station is found by bisecting the load scale at which
        its utilization crosses 1 (utilizations are monotone in the scale;
        block sizes re-solve at every probe).
        """
        offered = offered_rate(self.demands)
        if offered <= 0:
            return [], math.inf, ""
        current = self._station_utilizations(1.0)

        def crossing_scale(name: str) -> float:
            load = current[name]
            if load <= 0:
                return math.inf
            if load == math.inf:
                return 0.0
            # Utilization is within a block-amortization factor of linear:
            # 1/load brackets the crossing tightly from one side.
            low, high = 0.0, 1.0 / load
            while self._station_utilizations(high).get(name, 0.0) < 1.0:
                low = high
                high *= 2.0
                if high > 1e9:
                    return math.inf
            for _ in range(50):
                mid = (low + high) / 2.0
                if self._station_utilizations(mid).get(name, 0.0) < 1.0:
                    low = mid
                else:
                    high = mid
            return high

        stations = [StationLoad(name=name, utilization=load,
                                capacity=crossing_scale(name) * offered)
                    for name, load in sorted(current.items())]
        capacity = min((station.capacity for station in stations),
                       default=math.inf)
        bottleneck = min(stations, key=lambda s: s.capacity).name \
            if stations else ""
        return stations, capacity, bottleneck

    # -- the prediction -------------------------------------------------

    def peak_utilization(self) -> float:
        """The busiest station's utilization at the offered load.

        One utilization sweep, no saturation search — the cheap screen the
        capacity planner runs over its whole configuration grid before
        paying for a full :meth:`predict` on the winner.
        """
        return max(self._station_utilizations(1.0).values(), default=0.0)

    def predict(self, with_capacity: bool = True) -> SystemPrediction:
        """Closed-form per-channel latency distributions plus capacity.

        ``with_capacity=False`` skips the per-station saturation search
        (the latency side only): the returned prediction carries no
        stations and reports infinite capacity, so only use it after
        :meth:`peak_utilization` confirmed the load is feasible.
        """
        fit = self.fit
        costs = fit.costs
        topology = self.topology
        net = topology.network_latency

        arrivals = self._endorser_arrivals()
        slots = min(costs.endorser_concurrency, costs.peer_cores)
        busiest = max(arrivals.values(), default=0.0)
        endorse_service = fit.endorse_service()
        endorse_wait = WaitDistribution.mgc(busiest, endorse_service, slots)

        envelope_service = fit.order_envelope_service()
        envelope_wait = WaitDistribution.mgc(
            offered_rate(self.demands), envelope_service,
            costs.orderer_cores)
        consensus = fit.consensus_round_trip(topology.orderer.kind, net)

        client_service = fit.client_service()
        channels = []
        for demand in self.demands:
            channels.append(self._predict_channel(
                demand, client_service, endorse_service, endorse_wait,
                envelope_service, envelope_wait, consensus, net))
        if with_capacity:
            stations, capacity, bottleneck = self._stations()
        else:
            stations, capacity, bottleneck = [], math.inf, ""
        return SystemPrediction(channels=channels, stations=stations,
                                offered=offered_rate(self.demands),
                                capacity=capacity, bottleneck=bottleneck)

    def _predict_channel(self, demand: ChannelDemand,
                         client_service: ServiceMoments,
                         endorse_service: ServiceMoments,
                         endorse_wait: WaitDistribution,
                         envelope_service: ServiceMoments,
                         envelope_wait: WaitDistribution,
                         consensus: float, net: float) -> ChannelPrediction:
        fit = self.fit
        rate = demand.rate

        # Execute: client event loop -> proposals out -> responses back.
        per_client = rate / demand.clients if demand.clients else 0.0
        if demand.clients == 0 and rate > 0:
            client_wait = WaitDistribution.saturated()
        else:
            client_wait = WaitDistribution.mg1(per_client, client_service)
        execute_mean = (client_service.mean + client_wait.mean
                        + fit.client_pipeline_latency(demand.endorsements)
                        + 2.0 * net
                        + endorse_wait.mean + endorse_service.mean
                        + fit.endorse_latency_overhead())
        execute_var = (client_service.var + client_wait.var
                       + endorse_wait.var + endorse_service.var)

        # Order: broadcast -> OSN CPU -> block cut -> consensus.
        window = self._formation_window(rate)
        order_mean = (net + envelope_wait.mean + envelope_service.mean
                      + window / 2.0 + consensus)
        order_var = (envelope_wait.var + envelope_service.var
                     + window * window / 12.0)

        # Validate: deliver -> per-channel block pipeline -> commit.
        block_service, size, blocks = self._block_service(demand, rate)
        validate_wait = WaitDistribution.gg1(
            blocks, self._block_arrival_scv(rate), block_service)
        validate_mean = (net + validate_wait.mean + block_service.mean)
        validate_var = validate_wait.var + block_service.var

        execute = PhaseLatency.from_moments(execute_mean, execute_var)
        order = PhaseLatency.from_moments(order_mean, order_var)
        validate = PhaseLatency.from_moments(validate_mean, validate_var)
        total = PhaseLatency.from_moments(
            execute_mean + order_mean + validate_mean,
            execute_var + order_var + validate_var)
        return ChannelPrediction(
            channel=demand.channel, rate=rate,
            endorsements=demand.endorsements, block_size=size,
            formation_window=window, execute=execute, order=order,
            validate=validate, total=total)
