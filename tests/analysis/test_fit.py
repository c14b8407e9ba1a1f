"""Tests for the phase-model calibration layer (fit.py)."""

import pytest

from repro.analysis.fit import CostFit, EmpiricalFit, ServiceMoments
from repro.common.config import StateDBConfig
from repro.runtime.costs import CostModel


class FakeSpan:
    """Minimal stand-in for a tracer Span."""

    def __init__(self, name, start, end, wait=0.0, args=None):
        self.name = name
        self.start = start
        self.end = end
        self.wait = wait
        self.args = args

    @property
    def duration(self):
        return self.end - self.start


# ----------------------------------------------------------------------
# ServiceMoments
# ----------------------------------------------------------------------

def test_moments_from_samples():
    moments = ServiceMoments.from_samples([1.0, 2.0, 3.0])
    assert moments.mean == pytest.approx(2.0)
    assert moments.var == pytest.approx(1.0)  # sample variance, n-1
    assert moments.scv == pytest.approx(0.25)


def test_moments_degenerate_samples():
    assert ServiceMoments.from_samples([]).mean == 0.0
    single = ServiceMoments.from_samples([0.5])
    assert single.mean == pytest.approx(0.5)
    assert single.scv == 0.0


def test_moments_mixture():
    a = ServiceMoments(1.0, 0.0)
    b = ServiceMoments(3.0, 0.0)
    mixed = ServiceMoments.mixture([(0.5, a), (0.5, b)])
    assert mixed.mean == pytest.approx(2.0)
    # Mixture of point masses at 1 and 3: variance 1.
    assert mixed.var == pytest.approx(1.0)


def test_moments_reject_negative():
    with pytest.raises(ValueError):
        ServiceMoments(-1.0)
    with pytest.raises(ValueError):
        ServiceMoments(1.0, scv=-0.5)


# ----------------------------------------------------------------------
# CostFit
# ----------------------------------------------------------------------

def test_cost_fit_client_and_endorse_services():
    costs = CostModel()
    fit = CostFit(costs)
    assert fit.client_service().mean == pytest.approx(
        costs.client_prep_cpu + costs.client_collect_cpu
        + costs.client_submit_cpu)
    assert fit.endorse_service().mean == pytest.approx(costs.endorse_cpu)
    assert fit.endorse_latency_overhead() == pytest.approx(
        costs.chaincode_container_latency)


def test_cost_fit_validate_block_service_matches_components():
    costs = CostModel()
    fit = CostFit(costs)
    block = fit.validate_block_service(100.0, endorsements=5)
    workers = min(costs.validator_workers, costs.peer_cores)
    expected = (costs.block_verify_cpu
                + 100.0 * costs.vscc_tx_cpu(5) / workers
                + 100.0 * costs.mvcc_per_tx_cpu
                + costs.commit_per_block_io
                + 100.0 * costs.leveldb_write_per_key_io)
    assert block.mean == pytest.approx(expected)
    assert block.scv == 0.0


def test_cost_fit_marginal_is_block_service_slope():
    fit = CostFit(CostModel())
    low = fit.validate_block_service(50.0, endorsements=1).mean
    high = fit.validate_block_service(150.0, endorsements=1).mean
    slope = (high - low) / 100.0
    assert fit.validate_per_tx_marginal(1) == pytest.approx(slope)


def test_cost_fit_couchdb_costs_exceed_leveldb():
    costs = CostModel()
    leveldb = CostFit(costs, StateDBConfig(kind="leveldb"))
    couch = CostFit(costs, StateDBConfig(kind="couchdb"))
    tuned = CostFit(costs, StateDBConfig(kind="couchdb", cache=True,
                                         bulk=True))
    plain_block = couch.validate_block_service(100.0, 1).mean
    tuned_block = tuned.validate_block_service(100.0, 1).mean
    level_block = leveldb.validate_block_service(100.0, 1).mean
    assert plain_block > tuned_block > 0
    assert tuned_block > level_block


def test_consensus_round_trip_ordering():
    fit = CostFit(CostModel())
    solo = fit.consensus_round_trip("solo", 0.00025)
    raft = fit.consensus_round_trip("raft", 0.00025)
    kafka = fit.consensus_round_trip("kafka", 0.00025)
    assert solo < raft < kafka


# ----------------------------------------------------------------------
# EmpiricalFit: moment recovery from synthetic spans
# ----------------------------------------------------------------------

def test_empirical_fit_recovers_endorse_service():
    spans = [FakeSpan("endorse", start=i, end=i + 0.010, wait=0.003)
             for i in range(20)]
    fit = EmpiricalFit.from_spans(spans, costs=CostModel())
    assert fit.endorse_service().mean == pytest.approx(0.007)
    # The observed span covers the container round trip already.
    assert fit.endorse_latency_overhead() == 0.0


def test_empirical_fit_regression_splits_fixed_and_marginal():
    # Synthetic blocks: service = 0.02 fixed + 0.001 per tx, no noise.
    spans = [FakeSpan("validate.block", start=0.0,
                      end=0.02 + 0.001 * txs, wait=0.0,
                      args={"txs": txs})
             for txs in (10, 20, 50, 80, 100)]
    fit = EmpiricalFit.from_spans(spans, costs=CostModel())
    assert fit.validate_per_tx_marginal(5) == pytest.approx(0.001,
                                                            rel=1e-6)
    block = fit.validate_block_service(60.0, endorsements=5)
    assert block.mean == pytest.approx(0.02 + 0.06, rel=1e-6)


def test_empirical_fit_single_block_size_attributes_to_marginal():
    spans = [FakeSpan("validate.block", 0.0, 0.05, args={"txs": 50})
             for _ in range(3)]
    fit = EmpiricalFit.from_spans(spans, costs=CostModel())
    assert fit.validate_per_tx_marginal(1) == pytest.approx(0.001)


def test_empirical_fit_falls_back_to_costs_when_unobserved():
    costs = CostModel()
    fit = EmpiricalFit.from_spans([], costs=costs)
    base = CostFit(costs)
    assert fit.endorse_service().mean == base.endorse_service().mean
    assert (fit.validate_block_service(100.0, 5).mean
            == base.validate_block_service(100.0, 5).mean)
    assert fit.client_service().mean == base.client_service().mean


# ----------------------------------------------------------------------
# EmpiricalFit: recovery from a real (seeded, short) simulated run
# ----------------------------------------------------------------------

def test_empirical_fit_from_short_observed_run():
    from repro.experiments.runner import make_topology, make_workload
    from repro.fabric.network import FabricNetwork

    topology = make_topology("solo", "AND5", 4)
    workload = make_workload(60.0, 4.0)
    network = FabricNetwork(topology, workload, seed=1, observe=True)
    metrics = network.run_workload()
    fit = EmpiricalFit.from_network(network, metrics=metrics)
    costs = network.context.costs

    # Endorse service: CPU + container round trip, within a small slack
    # (TLS per-message CPU rides the same span).
    endorse = fit.endorse_service().mean
    expected = costs.endorse_cpu + costs.chaincode_container_latency
    assert endorse == pytest.approx(expected, rel=0.25)

    # The observed wall-clock marginal sits between the idealized
    # worker-parallel marginal and the fully serial per-tx cost (worker
    # overlap is imperfect and the span includes CPU contention).
    marginal = fit.validate_per_tx_marginal(5)
    parallel_bound = CostFit(costs).validate_per_tx_marginal(5)
    serial_bound = (costs.vscc_tx_cpu(5) + costs.mvcc_per_tx_cpu
                    + costs.leveldb_write_per_key_io)
    assert 0.8 * parallel_bound < marginal < 1.2 * serial_bound
