"""The phase model's latency answers, against the paper's Table III and
the simulator."""

import math

import pytest

from repro.analysis import PhaseModel
from repro.common.config import (
    ChannelConfig,
    ChannelWorkload,
    TopologyConfig,
    WorkloadConfig,
)
from repro.experiments.runner import make_topology, make_workload


def predict(policy="OR10", rate=100.0, clients=10):
    """Ten endorsing peers, solo ordering, the latency side only."""
    topology = TopologyConfig(
        num_endorsing_peers=10,
        channel=ChannelConfig(endorsement_policy=policy))
    workload = WorkloadConfig(arrival_rate=rate, num_clients=clients)
    return PhaseModel(topology, workload).predict(with_capacity=False)


def order_validate(prediction):
    """The paper's combined "Order & Validate" number."""
    return prediction.order.mean + prediction.validate.mean


def test_expected_block_size_regimes():
    # Low rate: timeout-cut blocks hold rate * timeout transactions.
    assert predict(rate=20.0).channels[0].block_size == pytest.approx(20)
    # High rate: size-cut blocks hold BatchSize transactions.
    assert predict(rate=500.0).channels[0].block_size == 100
    assert predict(rate=0.1).channels[0].block_size >= 1.0


def test_block_formation_wait_regimes():
    # Timeout-bound: mean wait is half the BatchTimeout.
    slow = predict(rate=20.0).channels[0]
    assert slow.formation_window / 2 == pytest.approx(0.5)
    # Size-bound at 400 tps: blocks cut every 0.25 s, mean wait 0.125 s.
    fast = predict(rate=400.0).channels[0]
    assert fast.formation_window / 2 == pytest.approx(0.125)


def test_execute_latency_floor_matches_paper_band():
    # Paper Table III: execute latency ~0.25-0.32 s under OR, measured just
    # below the per-client 50 tps peak.
    assert 0.2 <= predict(rate=42.0, clients=1).execute.mean <= 0.45


def test_execute_latency_grows_with_endorsements():
    # Paper Table III: AND execute latency exceeds OR.
    assert (predict("AND5").execute.mean
            > predict("OR10").execute.mean + 0.1)


def test_execute_latency_diverges_at_client_saturation():
    # 60 tps > the single client's ~50 tps capacity.
    assert math.isinf(predict(rate=60.0, clients=1).execute.mean)


def test_validate_latency_grows_with_endorsements_and_rate():
    assert (predict("AND5", 150.0).validate.mean
            > predict("OR10", 150.0).validate.mean)
    assert (predict("OR10", 300.0).validate.mean
            > predict("OR10", 30.0).validate.mean)


def test_order_validate_band_matches_paper():
    # Paper Table III order&validate: ~0.4-0.8 s across configurations.
    for rate in (40.0, 150.0, 280.0):
        assert 0.3 <= order_validate(predict(rate=rate)) <= 1.1, rate


def test_model_matches_simulation_below_saturation():
    from repro.experiments.runner import run_point

    for rate in (150.0, 280.0):
        point = run_point("solo", "OR10", rate, peers=10, duration=15)
        predicted = PhaseModel(make_topology("solo", "OR10", 10),
                               make_workload(rate, 15)).predict()
        assert predicted.execute.mean == pytest.approx(
            point.metrics.execute_latency, rel=0.35), rate
        assert order_validate(predicted) == pytest.approx(
            point.metrics.order_validate_latency, rel=0.35), rate


def test_breakdown_total_is_sum():
    (channel,) = predict().channels
    assert channel.total.mean == pytest.approx(
        channel.execute.mean + channel.order.mean + channel.validate.mean)


def test_deployment_breakdowns_multi_channel():
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="ch1"),
        extra_channels=[ChannelConfig(name="ch2")])
    workload = WorkloadConfig(
        arrival_rate=150.0, num_clients=4,
        per_channel={"ch1": ChannelWorkload(rate=120.0),
                     "ch2": ChannelWorkload(rate=30.0)})
    prediction = PhaseModel(topology, workload).predict(with_capacity=False)
    channels = {channel.channel: channel for channel in prediction.channels}
    assert set(channels) == {"ch1", "ch2"}
    for channel in channels.values():
        assert channel.total.mean == pytest.approx(
            channel.execute.mean + channel.order.mean
            + channel.validate.mean)
    # Rate-weighted mean lies between the per-channel extremes.
    totals = sorted(channel.total.mean for channel in channels.values())
    assert totals[0] <= prediction.latency.mean <= totals[-1]


def test_deployment_breakdown_zero_rate_is_zero():
    topology = TopologyConfig(num_endorsing_peers=4)
    workload = WorkloadConfig(arrival_rate=0.0, num_clients=2)
    assert PhaseModel(topology, workload).predict().latency.mean == 0.0
