"""Calibration layer: per-phase service moments for the phase model.

The stochastic phase model (:mod:`repro.analysis.phase_model`) composes
queueing stations from the first two moments of each phase's service time.
:class:`CostFit` reads them straight off the calibrated
:class:`~repro.runtime.costs.CostModel`, so a prediction needs no
simulation at all.  State-database work is priced with the simulated
backends' own cost functions (:data:`repro.statedb.BACKENDS`), so the
model and the simulator share one cost contract.
"""

from __future__ import annotations

import dataclasses

from repro.common.config import StateDBConfig
from repro.runtime.costs import CostModel
from repro.statedb import BACKENDS


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


class CostFit:
    """Service moments read straight off the calibrated cost model.

    Every cost-model constant is a deterministic per-operation charge, so
    cost-derived services carry SCV 0; stochastic spread enters the phase
    model through block-size variability and the queueing formulas, not
    through these primitives.
    """

    def __init__(self, costs: CostModel | None = None,
                 statedb: StateDBConfig | None = None) -> None:
        self.costs = costs if costs is not None else CostModel()
        self.costs.validate()
        self.statedb = statedb if statedb is not None else StateDBConfig()
        self.statedb.validate()
        self._backend = BACKENDS[self.statedb.kind]

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
        """Marginal block-service seconds added by one more transaction.

        The state-DB term is a one-transaction block's, per-request
        overheads included, so on CouchDB it exceeds the slope.
        """
        costs = self.costs
        workers = min(costs.validator_workers, costs.peer_cores)
        return (costs.vscc_tx_cpu(endorsements) / workers
                + costs.mvcc_per_tx_cpu
                + self.statedb_block_io(1.0, reads_per_tx))

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
                + self.statedb_block_io(block_txs, reads_per_tx))
        return ServiceMoments(mean)

    def statedb_block_io(self, block_txs: float,
                         reads_per_tx: float = 0.0) -> float:
        """Serial state-DB seconds to validate and commit one block.

        Prices the validator's backend calls for the block — the read
        set's bulk prefetch or point reads, then one commit batch — with
        the backend's own cost functions, from the model's counts:

        - every transaction writes one key;
        - a "conflict" transaction (``reads_per_tx`` 1) reads the key it
          writes, so its revision is known at commit when ``bulk`` or
          ``cache`` is on;
        - a "unique" transaction's fresh key has no known revision;
        - with the ``cache`` on, the read set is served warm and costs
          nothing.
        """
        if block_txs <= 0:
            return 0.0  # the backend skips an empty commit batch
        statedb = self.statedb
        backend = self._backend
        costs = self.costs
        reads = block_txs * reads_per_tx
        read_io = 0.0
        if reads and not statedb.cache:
            read_io = (backend._bulk_read_cost(costs, reads) if statedb.bulk
                       else reads * backend._point_read_cost(costs))
        known = (min(reads, block_txs) if statedb.bulk or statedb.cache
                 else 0.0)
        return read_io + backend._commit_cost(
            costs, block_txs, block_txs - known, statedb.bulk)

    # -- per-tx CPU demand (capacity accounting) ------------------------

    def validate_cpu_per_tx(self, endorsements: int) -> float:
        """Peer CPU seconds per validated transaction (all workers)."""
        return (self.costs.vscc_tx_cpu(endorsements)
                + self.costs.mvcc_per_tx_cpu)
