"""Tests for the phase-model calibration layer (fit.py)."""

import pytest

from repro.analysis.fit import CostFit, ServiceMoments
from repro.common.config import StateDBConfig
from repro.common.types import KVWrite
from repro.statedb.backend import committed_write
from repro.runtime.costs import CostModel
from repro.statedb import build_backend


# ----------------------------------------------------------------------
# ServiceMoments
# ----------------------------------------------------------------------

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
# The state-DB cost contract: the model prices what the backend charges
# ----------------------------------------------------------------------

@pytest.mark.parametrize("block_txs", [1, 37, 100])
@pytest.mark.parametrize("workload", ["unique", "conflict"])
@pytest.mark.parametrize("bulk", [False, True])
@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("kind", ["leveldb", "couchdb"])
def test_statedb_block_io_matches_the_backend(kind, cache, bulk, workload,
                                              block_txs):
    costs = CostModel()
    statedb = StateDBConfig(kind=kind, cache=cache, bulk=bulk)
    backend = build_backend(statedb, costs)
    keys = [f"k{index}" for index in range(block_txs)]
    # A "unique" transaction writes a fresh key and reads nothing; a
    # "conflict" one reads the existing key it then writes.
    read_keys = keys if workload == "conflict" else []
    backend.apply_writes([KVWrite(key, b"0") for key in read_keys],
                         version=(1, 0))
    if cache:
        # The model's stated assumption: the read set is cached.
        for key in read_keys:
            backend.get(key)
        backend.drain_cost()
    # The validator's calls for one block: bulk prefetch, MVCC's version
    # reads, then one commit batch.
    if bulk:
        backend.bulk_get(read_keys)
    for key in read_keys:
        backend.get_version(key)
    backend.commit_batch([committed_write(KVWrite(key, b"1"), (2, index))
                          for index, key in enumerate(keys)])
    charged = backend.drain_cost()
    reads_per_tx = 1.0 if workload == "conflict" else 0.0
    priced = CostFit(costs, statedb).statedb_block_io(float(block_txs),
                                                      reads_per_tx)
    assert priced == pytest.approx(charged, rel=1e-9)
