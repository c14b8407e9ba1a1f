"""Calibration layer: per-phase service moments for the phase model.

The stochastic phase model (:mod:`repro.analysis.phase_model`) composes
queueing stations from the first two moments of each phase's service time.
Those moments come from one of two sources:

- :class:`CostFit` derives them **directly from the cost model contracts**
  — :class:`~repro.runtime.costs.CostModel` constants plus the
  :class:`~repro.common.config.StateDBConfig` backend cost mirror — so a
  prediction needs no simulation at all;
- :class:`EmpiricalFit` recovers them **from an observed run**: tracer
  span groups give per-operation service samples (span duration minus its
  recorded queue wait), block-level services regress onto block size to
  split per-block overhead from the per-transaction marginal, and the
  run's :class:`~repro.metrics.collector.PhaseMetrics` anchor the
  consensus round trip.  Components a short run cannot isolate (client
  CPU, which is never separately spanned) fall back to the cost fit.

An empirical fit is specific to the observed run's policy, backend, and
worker configuration; use it to cross-check the cost-derived fit, not to
extrapolate across policies.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.common.config import StateDBConfig
from repro.runtime.costs import CostModel

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.network import FabricNetwork
    from repro.metrics.collector import PhaseMetrics
    from repro.obs.tracer import Span


@dataclasses.dataclass(frozen=True)
class ServiceMoments:
    """First two moments of a service-time distribution.

    ``scv`` is the squared coefficient of variation Var[S] / E[S]^2 — 0
    for deterministic service, 1 for exponential — the only shape
    information the two-moment queueing approximations consume.
    """

    mean: float
    scv: float = 0.0

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise ValueError(f"service mean must be >= 0, got {self.mean}")
        if self.scv < 0:
            raise ValueError(f"service SCV must be >= 0, got {self.scv}")

    @property
    def var(self) -> float:
        return self.scv * self.mean * self.mean

    @classmethod
    def from_samples(cls, samples: typing.Sequence[float]) -> "ServiceMoments":
        """Sample mean and SCV; degenerate inputs collapse gracefully."""
        if not samples:
            return cls(mean=0.0, scv=0.0)
        mean = sum(samples) / len(samples)
        if mean <= 0 or len(samples) < 2:
            return cls(mean=max(mean, 0.0), scv=0.0)
        var = (sum((value - mean) ** 2 for value in samples)
               / (len(samples) - 1))
        return cls(mean=mean, scv=var / (mean * mean))

    @staticmethod
    def mixture(
        components: typing.Sequence[tuple[float, "ServiceMoments"]],
    ) -> "ServiceMoments":
        """Moments of a probabilistic mixture of service distributions.

        ``components`` pairs each branch's probability weight with its
        moments; weights are normalised.  Used to pool per-channel block
        services into one station when channels share a peer.
        """
        total = sum(weight for weight, _moments in components)
        if total <= 0:
            return ServiceMoments(mean=0.0, scv=0.0)
        mean = sum(weight * moments.mean
                   for weight, moments in components) / total
        second = sum(weight * (moments.var + moments.mean ** 2)
                     for weight, moments in components) / total
        if mean <= 0:
            return ServiceMoments(mean=0.0, scv=0.0)
        var = max(0.0, second - mean * mean)
        return ServiceMoments(mean=mean, scv=var / (mean * mean))


class CostFit:
    """Service moments read straight off the calibrated cost model.

    Every cost-model constant is a deterministic per-operation charge, so
    cost-derived services carry SCV 0; stochastic spread enters the phase
    model through block-size variability and the queueing formulas, not
    through these primitives.
    """

    source = "costs"

    def __init__(self, costs: CostModel | None = None,
                 statedb: StateDBConfig | None = None) -> None:
        self.costs = costs if costs is not None else CostModel()
        self.statedb = statedb if statedb is not None else StateDBConfig()

    # -- client ---------------------------------------------------------

    def client_service(self) -> ServiceMoments:
        """Per-transaction client CPU occupying the SDK event loop."""
        costs = self.costs
        return ServiceMoments(costs.client_prep_cpu
                              + costs.client_collect_cpu
                              + costs.client_submit_cpu)

    def client_pipeline_latency(self, endorsements: int) -> float:
        """Asynchronous SDK pipeline latency (adds no client CPU)."""
        return (self.costs.sdk_base_latency
                + self.costs.sdk_per_endorsement_latency * endorsements)

    # -- endorse --------------------------------------------------------

    def endorse_service(self) -> ServiceMoments:
        """Per-proposal CPU occupying an endorser slot."""
        return ServiceMoments(self.costs.endorse_cpu)

    def endorse_latency_overhead(self) -> float:
        """Chaincode-container round trip (latency, not slot time)."""
        return self.costs.chaincode_container_latency

    # -- order ----------------------------------------------------------

    def order_envelope_service(self) -> ServiceMoments:
        """Per-envelope OSN CPU (TLS, unmarshalling, size checks)."""
        return ServiceMoments(self.costs.orderer_per_envelope_cpu)

    def consensus_round_trip(self, orderer_kind: str,
                             network_latency: float) -> float:
        """Broadcast-to-cut consensus overhead beyond block formation."""
        costs = self.costs
        if orderer_kind == "raft":
            # Leader append + quorum replication round trip + fsync.
            return (costs.raft_append_cpu + costs.consensus_fsync_io
                    + 4 * network_latency)
        if orderer_kind == "kafka":
            # Produce to the partition leader, ISR ack, consume back.
            return (costs.kafka_append_cpu + costs.consensus_fsync_io
                    + 6 * network_latency)
        return 2 * network_latency  # solo: OSN-internal hand-off

    # -- validate -------------------------------------------------------

    def validate_per_tx_marginal(self, endorsements: int,
                                 reads_per_tx: float = 0.0) -> float:
        """Marginal block-service seconds added by one more transaction."""
        costs = self.costs
        workers = min(costs.validator_workers, costs.peer_cores)
        return (costs.vscc_tx_cpu(endorsements) / workers
                + costs.mvcc_per_tx_cpu
                + costs.statedb_commit_io(self.statedb, 1.0)
                - costs.statedb_commit_io(self.statedb, 0.0)
                + costs.statedb_read_io(self.statedb, 1.0, reads_per_tx))

    def validate_block_service(self, block_txs: float, endorsements: int,
                               reads_per_tx: float = 0.0) -> ServiceMoments:
        """Wall-clock service of one block through the validate pipeline.

        VSCC spreads across the worker pool; header verify, MVCC, the
        commit fsync, and the state-database batch are serial — the same
        split as the simulated :class:`~repro.peer.validator.BlockValidator`.
        """
        costs = self.costs
        workers = min(costs.validator_workers, costs.peer_cores)
        mean = (costs.block_verify_cpu
                + block_txs * costs.vscc_tx_cpu(endorsements) / workers
                + block_txs * costs.mvcc_per_tx_cpu
                + costs.commit_per_block_io
                + costs.statedb_commit_io(self.statedb, block_txs)
                + costs.statedb_read_io(self.statedb, block_txs,
                                        reads_per_tx))
        return ServiceMoments(mean)

    # -- per-tx CPU/IO demands (capacity accounting) --------------------

    def validate_cpu_per_tx(self, endorsements: int) -> float:
        """Peer CPU seconds per validated transaction (all workers)."""
        return (self.costs.vscc_tx_cpu(endorsements)
                + self.costs.mvcc_per_tx_cpu)

    def statedb_per_tx(self, reads_per_tx: float = 0.0) -> float:
        """Serial state-database seconds per committed transaction."""
        return (self.costs.statedb_commit_io(self.statedb, 1.0)
                - self.costs.statedb_commit_io(self.statedb, 0.0)
                + self.costs.statedb_read_io(self.statedb, 1.0, reads_per_tx))


class EmpiricalFit(CostFit):
    """Cost fit with moments re-fitted from an observed run's spans.

    Span groups used (service = span duration minus its recorded queue
    wait): ``endorse`` for the endorsement service (the span covers the
    chaincode container round trip, so the separate latency overhead
    collapses to zero), ``order.broadcast`` for per-envelope OSN handling,
    and ``validate.block`` — whose ``txs`` annotation lets a least-squares
    regression split the per-block fixed overhead from the per-transaction
    marginal.  A supplied :class:`PhaseMetrics` additionally anchors the
    consensus round trip from the measured order latency.
    """

    source = "empirical"

    def __init__(self, costs: CostModel | None = None,
                 statedb: StateDBConfig | None = None,
                 endorse: ServiceMoments | None = None,
                 order_envelope: ServiceMoments | None = None,
                 validate_fixed: ServiceMoments | None = None,
                 validate_marginal: float | None = None,
                 consensus_rtt: float | None = None) -> None:
        super().__init__(costs, statedb)
        self._endorse = endorse
        self._order_envelope = order_envelope
        self._validate_fixed = validate_fixed
        self._validate_marginal = validate_marginal
        self._consensus_rtt = consensus_rtt

    # -- construction ---------------------------------------------------

    @classmethod
    def from_spans(cls, spans: typing.Sequence["Span"],
                   costs: CostModel | None = None,
                   statedb: StateDBConfig | None = None,
                   metrics: "PhaseMetrics | None" = None,
                   batch_timeout: float = 1.0,
                   batch_size: int = 100) -> "EmpiricalFit":
        """Fit service moments from a run's tracer span groups."""
        endorse_samples = []
        envelope_samples = []
        block_points: list[tuple[float, float]] = []
        for span in spans:
            duration = span.duration
            if duration is None:
                continue
            service = duration - (span.wait or 0.0)
            if service < 0:
                continue
            if span.name == "endorse":
                endorse_samples.append(service)
            elif span.name == "order.broadcast":
                envelope_samples.append(service)
            elif span.name == "validate.block":
                txs = (span.args or {}).get("txs")
                if isinstance(txs, (int, float)) and txs > 0:
                    block_points.append((float(txs), service))
        fixed, marginal, residual_var = _regress_block_service(block_points)
        consensus_rtt = None
        if metrics is not None and metrics.order_latency > 0:
            # The measured order latency is formation wait + consensus;
            # subtract the expected residual wait of the observed regime.
            rate = max(metrics.order_throughput, 1e-9)
            window = min(batch_size / rate, batch_timeout)
            consensus_rtt = max(0.0, metrics.order_latency - window / 2.0)
        return cls(
            costs=costs, statedb=statedb,
            endorse=(ServiceMoments.from_samples(endorse_samples)
                     if endorse_samples else None),
            order_envelope=(ServiceMoments.from_samples(envelope_samples)
                            if envelope_samples else None),
            validate_fixed=fixed,
            validate_marginal=marginal,
            consensus_rtt=consensus_rtt)

    @classmethod
    def from_network(cls, network: "FabricNetwork",
                     metrics: "PhaseMetrics | None" = None) -> "EmpiricalFit":
        """Fit from a completed observed run (``observe=True``)."""
        if network.obs is None:
            raise ValueError("empirical fit needs an observed network "
                             "(FabricNetwork(..., observe=True))")
        orderer = network.topology.orderer
        return cls.from_spans(
            network.obs.tracer.spans,
            costs=network.context.costs,
            statedb=network.topology.statedb,
            metrics=metrics,
            batch_timeout=orderer.batch_timeout,
            batch_size=orderer.batch_size)

    # -- overrides ------------------------------------------------------

    def endorse_service(self) -> ServiceMoments:
        if self._endorse is not None:
            return self._endorse
        return super().endorse_service()

    def endorse_latency_overhead(self) -> float:
        if self._endorse is not None:
            return 0.0  # the observed span already covers the container
        return super().endorse_latency_overhead()

    def order_envelope_service(self) -> ServiceMoments:
        if self._order_envelope is not None:
            return self._order_envelope
        return super().order_envelope_service()

    def consensus_round_trip(self, orderer_kind: str,
                             network_latency: float) -> float:
        if self._consensus_rtt is not None:
            return self._consensus_rtt
        return super().consensus_round_trip(orderer_kind, network_latency)

    def validate_per_tx_marginal(self, endorsements: int,
                                 reads_per_tx: float = 0.0) -> float:
        if self._validate_marginal is not None:
            return self._validate_marginal
        return super().validate_per_tx_marginal(endorsements, reads_per_tx)

    def validate_block_service(self, block_txs: float, endorsements: int,
                               reads_per_tx: float = 0.0) -> ServiceMoments:
        if self._validate_fixed is not None:
            marginal = self.validate_per_tx_marginal(endorsements,
                                                     reads_per_tx)
            mean = self._validate_fixed.mean + block_txs * marginal
            var = self._validate_fixed.var
            scv = var / (mean * mean) if mean > 0 else 0.0
            return ServiceMoments(mean, scv)
        return super().validate_block_service(block_txs, endorsements,
                                              reads_per_tx)


def _regress_block_service(
    points: typing.Sequence[tuple[float, float]],
) -> tuple[ServiceMoments | None, float | None, float]:
    """Least-squares split of block service into fixed + per-tx marginal.

    Returns ``(fixed moments, marginal seconds, residual variance)``;
    ``(None, None, 0.0)`` when the points cannot support a fit.  With a
    single observed block size the whole mean is attributed to the
    marginal (no intercept is identifiable).
    """
    if not points:
        return None, None, 0.0
    n = len(points)
    mean_x = sum(x for x, _y in points) / n
    mean_y = sum(y for _x, y in points) / n
    var_x = sum((x - mean_x) ** 2 for x, _y in points)
    if var_x <= 1e-12:
        if mean_x <= 0:
            return None, None, 0.0
        return ServiceMoments(0.0), mean_y / mean_x, 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = max(0.0, cov / var_x)
    intercept = max(0.0, mean_y - slope * mean_x)
    residuals = [y - (intercept + slope * x) for x, y in points]
    residual_var = (sum(r * r for r in residuals) / (n - 1)
                    if n > 1 else 0.0)
    scv = (residual_var / (intercept * intercept)
           if intercept > 1e-12 else 0.0)
    return ServiceMoments(intercept, scv), slope, residual_var
