"""The phase model's capacity answers against the paper's Table II."""

import pytest

from repro.analysis import PhaseModel
from repro.common.config import (
    ChannelConfig,
    PopulationConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.experiments.runner import make_topology, make_workload
from repro.runtime.costs import CostModel


def predict(spec, peers):
    """Table II deployment: one client per endorsing peer, solo ordering."""
    return PhaseModel(make_topology("solo", spec, peers),
                      make_workload(50.0 * peers)).predict()


def station(prediction, name):
    (match,) = [s for s in prediction.stations if s.name == name]
    return match


def phase(prediction):
    """The bottleneck station's phase: ``validate:mychannel`` -> validate."""
    return prediction.bottleneck.split(":")[0]


def test_or10_bottleneck_is_validate_at_about_300():
    # Table II: OR10 flattens at ~300 tps from 7 peers on.
    for peers in (7, 10):
        prediction = predict("OR10", peers)
        assert phase(prediction) == "validate"
        assert prediction.capacity == pytest.approx(305.1, abs=0.1)


def test_and5_bottleneck_is_validate_at_about_210():
    prediction = predict("AND5", 5)
    assert phase(prediction) == "validate"
    assert prediction.capacity == pytest.approx(210.2, abs=0.1)


def test_small_deployments_are_client_bound_at_50_per_peer():
    # Table II: 1 peer -> 50 tps, 3 peers -> 150, under every policy.
    for spec in ["OR10", "OR3", "AND5", "AND3"]:
        for peers in [1, 3]:
            prediction = predict(spec, peers)
            assert phase(prediction) == "client", (spec, peers)
            assert prediction.capacity == pytest.approx(50.0 * peers,
                                                        abs=0.1)


def test_or10_at_5_peers_client_bound_near_250():
    prediction = predict("OR10", 5)
    assert phase(prediction) == "client"
    assert prediction.capacity == pytest.approx(250.0, abs=0.1)


def test_ordering_never_binds():
    for spec, peers in [("OR10", 10), ("AND5", 5)]:
        prediction = predict(spec, peers)
        assert station(prediction, "order.cpu").capacity \
            > 5 * prediction.capacity


def test_and_execute_capacity_does_not_scale_with_targets():
    # Under AND every target endorses every tx.
    and3 = station(predict("AND3", 3), "endorse")
    and5 = station(predict("AND5", 5), "endorse")
    assert and5.capacity == pytest.approx(and3.capacity, rel=0.05)


def test_or_execute_capacity_scales_with_targets():
    or3 = station(predict("OR3", 3), "endorse")
    or10 = station(predict("OR10", 10), "endorse")
    assert or10.capacity > 3 * or3.capacity


def test_analytical_matches_simulation_within_ten_percent():
    # Cross-validation: the simulator's measured peak against the closed
    # form.
    from repro.experiments.runner import search_peak

    capacity = predict("OR10", 10).capacity
    peak, _points = search_peak("solo", "OR10", 10,
                                rates=[capacity, capacity * 1.2],
                                duration=10)
    assert peak == pytest.approx(capacity, rel=0.10)


def test_validate_capacity_includes_serial_path():
    # The closed form must account for MVCC + commit, not just VSCC.
    costs = CostModel()
    vscc_only = (min(costs.validator_workers, costs.peer_cores)
                 / costs.vscc_tx_cpu(1))
    validate = station(predict("OR10", 10), "validate:mychannel")
    assert validate.capacity < vscc_only


def test_deployment_capacities_multi_channel():
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="ch1"),
        extra_channels=[ChannelConfig(name="ch2")])
    workload = WorkloadConfig(arrival_rate=100.0, num_clients=4)
    prediction = PhaseModel(topology, workload).predict()
    validate = {s.name: s.capacity for s in prediction.stations
                if s.name.startswith("validate:")}
    assert set(validate) == {"validate:ch1", "validate:ch2"}
    # Each channel's private pipeline bounds the shared system.
    assert 0 < prediction.capacity <= min(validate.values())


def test_deployment_system_capacity_population_workload():
    topology = TopologyConfig(num_endorsing_peers=4)
    workload = WorkloadConfig(
        arrival_rate=120.0,
        population=PopulationConfig(num_users=5000, cohorts_per_channel=2))
    prediction = PhaseModel(topology, workload).predict()
    assert 0 < prediction.capacity < float("inf")
