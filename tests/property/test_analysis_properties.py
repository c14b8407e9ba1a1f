"""Property-based tests for the stochastic phase model."""

import dataclasses
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.phase_model import PhaseModel
from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.runtime.costs import CostModel


def _predict_capacity(costs, policy="AND5", rate=100.0):
    topology = TopologyConfig(
        num_endorsing_peers=10,
        channel=ChannelConfig(endorsement_policy=policy))
    workload = WorkloadConfig(arrival_rate=rate, num_clients=10)
    return PhaseModel(topology, workload, costs=costs).predict()


@given(st.lists(st.floats(min_value=0.0, max_value=0.01),
                min_size=2, max_size=6, unique=True))
@settings(max_examples=20, deadline=None)
def test_throughput_monotone_nonincreasing_in_vscc_cost(vscc_costs):
    """Predicted system throughput never rises with per-tx VSCC cost."""
    base = CostModel()
    capacities = []
    for per_endorsement in sorted(vscc_costs):
        costs = dataclasses.replace(
            base, vscc_per_endorsement_cpu=per_endorsement)
        capacities.append(_predict_capacity(costs).capacity)
    for cheap, costly in zip(capacities, capacities[1:]):
        assert costly <= cheap + 1e-9


@given(st.floats(min_value=10.0, max_value=5000.0))
@settings(max_examples=25, deadline=None)
def test_throughput_never_exceeds_offered_or_capacity(rate):
    prediction = _predict_capacity(CostModel(), rate=rate)
    assert prediction.throughput <= rate + 1e-9
    assert prediction.throughput <= prediction.capacity + 1e-9
    assert prediction.capacity > 0


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_latency_quantiles_are_ordered(clients, timeout):
    topology = TopologyConfig(
        num_endorsing_peers=4,
        orderer=OrdererConfig(batch_timeout=timeout))
    workload = WorkloadConfig(arrival_rate=20.0, num_clients=clients)
    prediction = PhaseModel(topology, workload).predict(
        with_capacity=False)
    latency = prediction.latency
    if math.isfinite(latency.mean):
        assert 0.0 < latency.p50 <= latency.p95 <= latency.p99
    for channel in prediction.channels:
        for phase in (channel.execute, channel.order, channel.validate,
                      channel.total):
            if math.isfinite(phase.mean):
                assert phase.p50 <= phase.p95 <= phase.p99


@given(st.integers(min_value=2, max_value=8))
@settings(max_examples=10, deadline=None)
def test_capacity_monotone_in_validator_workers(workers):
    base = CostModel()
    fewer = dataclasses.replace(base, validator_workers=workers,
                                peer_cores=8)
    more = dataclasses.replace(base, validator_workers=workers + 1,
                               peer_cores=8)
    assert (_predict_capacity(more).capacity
            >= _predict_capacity(fewer).capacity - 1e-9)
