"""Tests for the stochastic phase model (phase_model.py)."""

import dataclasses
import math

import pytest

from repro.analysis.phase_model import (
    PhaseLatency,
    PhaseModel,
    WaitDistribution,
)
from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.runtime.costs import CostModel


def _model(policy="OR(1..n)", peers=10, rate=100.0, clients=10,
           orderer=None, costs=None, statedb=None):
    topology = TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(endorsement_policy=policy),
        orderer=orderer or OrdererConfig())
    if statedb is not None:
        topology = dataclasses.replace(topology, statedb=statedb)
    workload = WorkloadConfig(arrival_rate=rate, num_clients=clients)
    return PhaseModel(topology, workload, costs=costs)


# ----------------------------------------------------------------------
# WaitDistribution
# ----------------------------------------------------------------------

def test_wait_distribution_none_and_saturated():
    none = WaitDistribution.none()
    assert none.mean == 0.0
    assert none.quantile(0.99) == 0.0
    saturated = WaitDistribution.saturated()
    assert math.isinf(saturated.mean)
    assert math.isinf(saturated.quantile(0.95))


def test_wait_distribution_quantiles_monotone():
    wait = WaitDistribution(probability=0.6, conditional_mean=0.5)
    q50 = wait.quantile(0.50)
    q95 = wait.quantile(0.95)
    q99 = wait.quantile(0.99)
    assert 0.0 <= q50 < q95 < q99
    # Below the atom's mass the quantile is exactly zero.
    assert wait.quantile(0.3) == 0.0


def test_wait_distribution_mg1_saturates():
    from repro.analysis.fit import ServiceMoments
    service = ServiceMoments(0.01, 1.0)
    light = WaitDistribution.mg1(arrival_rate=10.0, service=service)
    heavy = WaitDistribution.mg1(arrival_rate=99.0, service=service)
    over = WaitDistribution.mg1(arrival_rate=150.0, service=service)
    assert light.mean < heavy.mean
    assert math.isinf(over.mean)


def test_wait_distribution_mgc_more_servers_less_wait():
    from repro.analysis.fit import ServiceMoments
    service = ServiceMoments(0.02, 0.5)
    two = WaitDistribution.mgc(arrival_rate=80.0, service=service, servers=2)
    four = WaitDistribution.mgc(arrival_rate=80.0, service=service, servers=4)
    assert four.mean < two.mean


# ----------------------------------------------------------------------
# PhaseLatency
# ----------------------------------------------------------------------

def test_phase_latency_from_moments_quantile_order():
    latency = PhaseLatency.from_moments(0.5, 0.04)
    assert latency.p50 < latency.p95 < latency.p99
    assert latency.p50 == pytest.approx(0.5, rel=0.25)


def test_phase_latency_infinite_moments_propagate():
    latency = PhaseLatency.from_moments(math.inf, math.inf)
    assert math.isinf(latency.p95)
    assert math.isinf(latency.mean)


# ----------------------------------------------------------------------
# Block formation: timeout vs size binding
# ----------------------------------------------------------------------

def test_batch_timeout_binds_at_low_rate():
    orderer = OrdererConfig(batch_size=100, batch_timeout=2.0)
    model = _model(rate=10.0, orderer=orderer)
    # 10 tps x 2 s = 20 << 100: the timeout cuts blocks.
    size, _var = model._block_size(10.0)
    assert size == pytest.approx(20.0)
    assert model._formation_window(10.0) == pytest.approx(2.0)


def test_batch_size_binds_at_high_rate():
    orderer = OrdererConfig(batch_size=50, batch_timeout=2.0)
    model = _model(rate=200.0, orderer=orderer)
    # 200 tps fills 50-tx blocks in 0.25 s << the 2 s timeout.
    size, var = model._block_size(200.0)
    assert size == pytest.approx(50.0)
    assert var == 0.0
    assert model._formation_window(200.0) == pytest.approx(0.25)


def test_block_arrivals_are_regular_in_both_cutting_regimes():
    orderer = OrdererConfig(batch_size=50, batch_timeout=2.0)
    model = _model(orderer=orderer)
    # Size-cut: every 50th Poisson arrival closes a block (Erlang-50 gap).
    assert model._block_arrival_scv(200.0) == pytest.approx(1 / 50)
    # Timeout-cut: gap = 2 s + Exp(10 tps), SCV (0.1 / 2.1)^2.
    assert model._block_arrival_scv(10.0) == pytest.approx(
        (0.1 / 2.1) ** 2)


def test_order_latency_reflects_window_crossover():
    slow = _model(rate=20.0,
                  orderer=OrdererConfig(batch_size=500, batch_timeout=2.0))
    fast = _model(rate=20.0,
                  orderer=OrdererConfig(batch_size=500, batch_timeout=0.25))
    slow_order = slow.predict(with_capacity=False).order.mean
    fast_order = fast.predict(with_capacity=False).order.mean
    # Residual batch wait dominates order latency at low rates: mean
    # difference ~ (2.0 - 0.25) / 2.
    assert slow_order - fast_order == pytest.approx(0.875, rel=0.1)


# ----------------------------------------------------------------------
# Worker scaling and capacity anchors
# ----------------------------------------------------------------------

def test_validate_capacity_grows_with_workers():
    base = CostModel()
    doubled = dataclasses.replace(base, validator_workers=4)
    cap_two = _model(policy="AND5", costs=base).predict().capacity
    cap_four = _model(policy="AND5", costs=doubled).predict().capacity
    assert cap_four > cap_two


def test_paper_capacity_anchors():
    """The model lands on the paper's measured peaks (~300 OR, ~200 AND)."""
    or_prediction = _model(policy="OR(1..n)").predict()
    and_prediction = _model(policy="AND5").predict()
    assert or_prediction.capacity == pytest.approx(305.0, abs=15.0)
    assert and_prediction.capacity == pytest.approx(210.0, abs=15.0)
    assert "validate" in and_prediction.bottleneck


def test_saturated_system_reports_infinite_latency():
    prediction = _model(policy="AND5", rate=400.0).predict()
    assert prediction.saturated
    assert prediction.throughput < 400.0
    assert math.isinf(prediction.latency.p95)


def test_below_capacity_latency_is_finite_and_ordered():
    prediction = _model(policy="OR(1..n)", rate=100.0).predict()
    assert not prediction.saturated
    assert prediction.throughput == pytest.approx(100.0)
    latency = prediction.latency
    assert 0.0 < latency.p50 < latency.p95 < latency.p99 < math.inf
    # Total is the sum of the three phases.
    total = (prediction.execute.mean + prediction.order.mean
             + prediction.validate.mean)
    assert latency.mean == pytest.approx(total, rel=1e-6)


# ----------------------------------------------------------------------
# Structure: stations, channels, serialization
# ----------------------------------------------------------------------

def test_prediction_structure_and_as_dict():
    prediction = _model(rate=100.0).predict()
    station_names = {s.name for s in prediction.stations}
    assert {"endorse", "order.cpu", "peer.cpu",
            "peer.disk"} <= station_names
    assert any(name.startswith("validate:") for name in station_names)
    for station in prediction.stations:
        assert 0.0 <= station.utilization
        assert station.capacity > 0.0

    payload = prediction.as_dict()
    assert payload["capacity"] == pytest.approx(prediction.capacity)
    assert payload["bottleneck"] == prediction.bottleneck
    channel = payload["channels"][0]
    assert {"execute", "order", "validate", "total"} <= channel.keys()
    assert channel["total"]["p95"] >= channel["total"]["p50"]


def test_multi_channel_shares_peer_stations():
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="ch1"),
        extra_channels=[ChannelConfig(name="ch2")])
    workload = WorkloadConfig(arrival_rate=100.0, num_clients=4)
    prediction = PhaseModel(topology, workload).predict()
    assert len(prediction.channels) == 2
    # Two channels at 50 tps each on shared peers saturate at roughly the
    # same total as one channel at 100 tps.
    single = _model(rate=100.0, clients=4).predict()
    assert prediction.capacity == pytest.approx(single.capacity, rel=0.2)


def test_peak_utilization_screen_matches_stations():
    model = _model(policy="AND5", rate=100.0)
    peak = model.peak_utilization()
    prediction = model.predict()
    top = max(s.utilization for s in prediction.stations)
    assert peak == pytest.approx(top)
