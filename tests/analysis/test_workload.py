"""Tests for the analytic models' workload resolution."""

import pytest

from repro.analysis import offered_rate, resolve_demands
from repro.chaincode.policy import channel_policies
from repro.common.config import (
    ChannelConfig,
    ChannelWorkload,
    PopulationConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.fabric.network import FabricNetwork


def test_classic_single_channel_round_robin():
    topology = TopologyConfig(num_endorsing_peers=4)
    workload = WorkloadConfig(arrival_rate=100.0, num_clients=4)
    demands = resolve_demands(topology, workload)
    assert len(demands) == 1
    demand = demands[0]
    assert demand.channel == "mychannel"
    assert demand.rate == pytest.approx(100.0)
    assert demand.clients == 4
    assert offered_rate(demands) == pytest.approx(100.0)


def test_classic_multi_channel_splits_by_round_robin():
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="ch1"),
        extra_channels=[ChannelConfig(name="ch2")])
    # 5 clients over 2 channels: ch1 gets 3 (indices 0, 2, 4), ch2 gets 2.
    workload = WorkloadConfig(arrival_rate=100.0, num_clients=5)
    demands = {d.channel: d for d in resolve_demands(topology, workload)}
    assert demands["ch1"].clients == 3
    assert demands["ch2"].clients == 2
    assert demands["ch1"].rate == pytest.approx(60.0)
    assert demands["ch2"].rate == pytest.approx(40.0)
    assert offered_rate(list(demands.values())) == pytest.approx(100.0)


def test_per_channel_mix_rates_pass_through():
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="ch1"),
        extra_channels=[ChannelConfig(name="ch2")])
    workload = WorkloadConfig(
        arrival_rate=150.0, num_clients=4,
        per_channel={"ch1": ChannelWorkload(rate=120.0),
                     "ch2": ChannelWorkload(rate=30.0,
                                            workload="conflict")})
    demands = {d.channel: d for d in resolve_demands(topology, workload)}
    assert demands["ch1"].rate == pytest.approx(120.0)
    assert demands["ch2"].rate == pytest.approx(30.0)
    assert demands["ch2"].workload == "conflict"


def test_population_mode_matches_cohort_plan():
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="ch1"),
        extra_channels=[ChannelConfig(name="ch2")])
    workload = WorkloadConfig(
        arrival_rate=200.0,
        population=PopulationConfig(num_users=10_000,
                                    cohorts_per_channel=2))
    demands = {d.channel: d for d in resolve_demands(topology, workload)}
    assert demands["ch1"].clients == 2
    assert demands["ch2"].clients == 2
    assert offered_rate(list(demands.values())) == pytest.approx(200.0)


def test_policy_resolution_sets_endorsement_counts():
    topology = TopologyConfig(
        num_endorsing_peers=10,
        channel=ChannelConfig(endorsement_policy="AND5"))
    workload = WorkloadConfig(arrival_rate=50.0, num_clients=10)
    demand = resolve_demands(topology, workload)[0]
    assert demand.endorsements == 5
    assert demand.targets == 5

    or_topology = TopologyConfig(
        num_endorsing_peers=10,
        channel=ChannelConfig(endorsement_policy="OR(1..n)"))
    or_demand = resolve_demands(or_topology, workload)[0]
    assert or_demand.endorsements == 1
    assert or_demand.targets == 10


def test_network_and_model_resolve_the_same_channel_policies():
    topology = TopologyConfig(
        num_endorsing_peers=4, num_committing_only_peers=2,
        channel=ChannelConfig(name="a", endorsement_policy="OR3"),
        extra_channels=[
            ChannelConfig(name="b", endorsement_policy="AND(1..n)"),
            ChannelConfig(name="c", endorsement_policy="OutOf(2,3)")])
    workload = WorkloadConfig(arrival_rate=30.0, num_clients=3)
    policies = channel_policies(topology)
    assert list(policies) == ["a", "b", "c"]
    assert policies["b"].principals() == {"peer0", "peer1", "peer2",
                                          "peer3"}
    network = FabricNetwork(topology, workload)
    assert network.policies == policies
    assert [peer.name for peer in network.peers] == topology.peer_names
    for demand in resolve_demands(topology, workload):
        assert demand.policy == policies[demand.channel]
