"""Tests for the open-loop workload generator."""

import pytest

from repro.analysis import PhaseModel, resolve_demands
from repro.common.config import (
    ChannelConfig,
    ChannelWorkload,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
    plan_load,
)
from repro.common.errors import ConfigurationError
from repro.client.workload import WorkloadGenerator
from repro.fabric.network import FabricNetwork


def build(rate=40, duration=6, peers=2, kind="unique", process="uniform",
          skew=0.0, key_space=50, seed=13):
    topology = TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(endorsement_policy="OR(1..n)"),
        orderer=OrdererConfig(kind="solo"))
    workload = WorkloadConfig(arrival_rate=rate, duration=duration,
                              warmup=1, cooldown=1,
                              arrival_process=process,
                              read_write_conflict_skew=skew,
                              key_space=key_space)
    return FabricNetwork(topology, workload, seed=seed, workload_kind=kind)


def test_open_loop_rate_is_respected():
    network = build(rate=40, duration=6)
    network.start()
    network.workload.start(at=1.0)
    network.sim.run(until=7.2)
    assert network.workload.transactions_started == pytest.approx(240,
                                                                  abs=12)


def test_load_split_across_clients():
    network = build(rate=40, duration=6, peers=2)
    network.start()
    network.workload.start(at=1.0)
    network.sim.run(until=8.0)
    per_client = [client.submitted for client in network.clients]
    assert len(per_client) == 2
    assert per_client[0] == pytest.approx(per_client[1], abs=3)


def test_unique_workload_has_no_conflicts():
    network = build(rate=40, duration=6, kind="unique")
    metrics = network.run_workload()
    assert metrics.invalid_rate == 0
    assert metrics.overall_throughput > 0


def test_conflict_workload_produces_mvcc_invalidations():
    network = build(rate=60, duration=6, kind="conflict", key_space=5)
    metrics = network.run_workload()
    assert metrics.invalid_rate > 0


def test_zipf_skew_increases_conflicts():
    uniform = build(rate=60, duration=6, kind="conflict",
                    key_space=200, skew=0.0)
    skewed = build(rate=60, duration=6, kind="conflict",
                   key_space=200, skew=2.5)
    uniform_metrics = uniform.run_workload()
    skewed_metrics = skewed.run_workload()
    assert skewed_metrics.invalid_rate > uniform_metrics.invalid_rate


def test_poisson_arrivals_run():
    network = build(rate=40, duration=6, process="poisson")
    metrics = network.run_workload()
    assert metrics.overall_throughput > 20


def test_workload_requires_clients():
    with pytest.raises(ConfigurationError):
        WorkloadGenerator([], [], WorkloadConfig())
    network = build()
    with pytest.raises(ConfigurationError):  # one client per slice
        WorkloadGenerator(network.clients, network.plan[:1],
                          network.workload_config)


def test_workload_rejects_unknown_kind():
    with pytest.raises(ConfigurationError) as excinfo:
        build(kind="chaos")
    assert "chaos" in str(excinfo.value)
    with pytest.raises(ConfigurationError):
        plan_load(TopologyConfig(), WorkloadConfig(), "chaos")


def test_deterministic_given_seed():
    first = build(seed=21).run_workload()
    second = build(seed=21).run_workload()
    assert first.overall_throughput == second.overall_throughput
    assert first.overall_latency == second.overall_latency


def test_different_seeds_differ_slightly():
    first = build(seed=21, process="poisson").run_workload()
    second = build(seed=22, process="poisson").run_workload()
    assert first.overall_latency != second.overall_latency


# ----------------------------------------------------------------------
# Edge cases: idle workloads and zero-client configs
# ----------------------------------------------------------------------

def test_zero_rate_is_a_valid_idle_workload():
    network = build(rate=0, duration=6)
    metrics = network.run_workload()
    assert network.workload.transactions_started == 0
    assert metrics.overall_throughput == 0
    assert metrics.submitted_rate == 0


def test_zero_clients_raise_a_clear_error():
    with pytest.raises(ConfigurationError) as excinfo:
        WorkloadConfig(num_clients=0).validate()
    assert "num_clients" in str(excinfo.value)
    assert "omit" in str(excinfo.value)


# ----------------------------------------------------------------------
# Per-channel workload mixes
# ----------------------------------------------------------------------

def build_two_channels(per_channel, num_clients=4, duration=6, seed=13):
    topology = TopologyConfig(
        num_endorsing_peers=2,
        channel=ChannelConfig(name="hot", endorsement_policy="OR(1..n)"),
        extra_channels=[ChannelConfig(name="cold",
                                      endorsement_policy="OR(1..n)")],
        orderer=OrdererConfig(kind="solo"))
    workload = WorkloadConfig(arrival_rate=0, duration=duration,
                              warmup=1, cooldown=1,
                              num_clients=num_clients,
                              per_channel=per_channel)
    return FabricNetwork(topology, workload, seed=seed)


def test_per_channel_rates_are_independent():
    network = build_two_channels({
        "hot": ChannelWorkload(rate=60),
        "cold": ChannelWorkload(rate=10),
    })
    network.run_workload()
    per_channel = network.channel_metrics()
    assert per_channel["hot"].overall_throughput == pytest.approx(
        60, rel=0.25)
    assert per_channel["cold"].overall_throughput == pytest.approx(
        10, rel=0.45)


def test_per_channel_idle_channel_stays_quiet():
    network = build_two_channels({
        "hot": ChannelWorkload(rate=40),
        "cold": ChannelWorkload(rate=0),
    })
    network.run_workload()
    per_channel = network.channel_metrics()
    assert "cold" not in per_channel  # no transactions ever tagged cold
    assert per_channel["hot"].overall_throughput > 0


def test_per_channel_mix_can_differ_in_shape():
    network = build_two_channels({
        "hot": ChannelWorkload(rate=50, workload="conflict", key_space=5),
        "cold": ChannelWorkload(rate=50, workload="unique"),
    })
    network.run_workload()
    per_channel = network.channel_metrics()
    assert per_channel["hot"].invalid_rate > 0
    assert per_channel["cold"].invalid_rate == 0


def test_loaded_channel_without_clients_is_rejected():
    # Two clients round-robin onto two channels; a third channel with a
    # positive rate has nobody to drive it.  Validation, the network and
    # the model all refuse it before anything runs.
    topology = TopologyConfig(
        num_endorsing_peers=2,
        channel=ChannelConfig(name="a", endorsement_policy="OR(1..n)"),
        extra_channels=[
            ChannelConfig(name="b", endorsement_policy="OR(1..n)"),
            ChannelConfig(name="c", endorsement_policy="OR(1..n)")],
        orderer=OrdererConfig(kind="solo"))
    workload = WorkloadConfig(arrival_rate=0, num_clients=2,
                              per_channel={
                                  "a": ChannelWorkload(rate=10),
                                  "b": ChannelWorkload(rate=10),
                                  "c": ChannelWorkload(rate=10)})
    for entry in (lambda: topology.validate(workload),
                  lambda: FabricNetwork(topology, workload, seed=1),
                  lambda: PhaseModel(topology, workload)):
        with pytest.raises(ConfigurationError) as excinfo:
            entry()
        assert "channel 'c' has rate 10 tx/s but no client" in str(
            excinfo.value)
    # An idle channel beyond the round-robin is fine, and the model
    # keeps its mix's shape.
    workload.per_channel["c"] = ChannelWorkload(rate=0, workload="conflict")
    network = FabricNetwork(topology, workload, seed=1)
    assert [client.channel for client in network.clients] == ["a", "b"]
    idle = resolve_demands(topology, workload)[2]
    assert (idle.channel, idle.rate, idle.clients, idle.workload) == (
        "c", 0.0, 0, "conflict")
