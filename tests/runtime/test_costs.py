"""Tests for the calibrated cost model."""

import math

import pytest

from repro.analysis import PhaseModel
from repro.common.config import TopologyConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.fabric.network import FabricNetwork
from repro.runtime.costs import CostModel


def validate_capacity(costs):
    """The phase model's validate-station capacity under ``costs``."""
    prediction = PhaseModel(TopologyConfig(),
                            WorkloadConfig(arrival_rate=100.0),
                            costs=costs).predict()
    (station,) = [s for s in prediction.stations
                  if s.name.startswith("validate:")]
    return station.capacity


def test_defaults_validate():
    CostModel().validate()


def test_negative_cost_rejected():
    costs = CostModel(endorse_cpu=-1)
    with pytest.raises(ConfigurationError):
        costs.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_cost_rejected_naming_the_field(value):
    # Caught at construction, before the kernel pops a single event, and
    # by the model, which would otherwise predict from the bad value.
    costs = CostModel(endorse_cpu=value)
    message = "endorse_cpu must be finite and >= 0"
    with pytest.raises(ConfigurationError, match=message):
        costs.validate()
    with pytest.raises(ConfigurationError, match=message):
        FabricNetwork(TopologyConfig(), WorkloadConfig(), costs=costs)
    with pytest.raises(ConfigurationError, match=message):
        PhaseModel(TopologyConfig(), WorkloadConfig(), costs=costs)


def test_zero_worker_counts_rejected():
    with pytest.raises(ConfigurationError):
        CostModel(validator_workers=0).validate()
    with pytest.raises(ConfigurationError):
        CostModel(peer_cores=0).validate()


def test_client_capacity_is_about_fifty_tps():
    # Table II scales ~50 tps per endorsing peer = one client each.
    assert CostModel().client_capacity() == pytest.approx(50.0, rel=0.05)


def test_endorser_capacity_exceeds_client_capacity():
    # Endorsement must be cheap relative to the client, or Table II's AND
    # rows could not equal the OR rows at low peer counts.
    costs = CostModel()
    endorsements_per_s = (min(costs.endorser_concurrency, costs.peer_cores)
                          / costs.endorse_cpu)
    assert endorsements_per_s > 4 * costs.client_capacity()


def test_vscc_cost_grows_with_endorsements():
    costs = CostModel()
    assert costs.vscc_tx_cpu(5) > costs.vscc_tx_cpu(1)
    delta = costs.vscc_tx_cpu(2) - costs.vscc_tx_cpu(1)
    assert delta == pytest.approx(costs.vscc_per_endorsement_cpu)


def test_validate_capacity_bounded_by_cores():
    # Validator workers beyond the peer's cores add no validate capacity.
    capped = CostModel(validator_workers=16, peer_cores=2)
    more_cores = CostModel(validator_workers=16, peer_cores=16)
    assert validate_capacity(capped) < validate_capacity(more_cores)
