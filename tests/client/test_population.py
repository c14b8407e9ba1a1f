"""Tests for aggregated client populations.

The contract under test: a million-user population costs O(cohorts)
kernel processes and client nodes, generates superposed-Poisson traffic
matching the aggregate rate, tags every transaction with its cohort and
channel, and stays bit-for-bit reproducible for a fixed seed.
"""

import pytest

from repro.analysis import PhaseModel
from repro.common.config import (
    ChannelConfig,
    ChannelWorkload,
    OrdererConfig,
    PopulationConfig,
    TopologyConfig,
    WorkloadConfig,
    plan_load,
)
from repro.fabric.network import FabricNetwork
from repro.sim.sanitizer import digest_run


def topology_with(channels=1, peers=2):
    extra = [ChannelConfig(name=f"ch{i}", endorsement_policy="OR(1..n)")
             for i in range(2, channels + 1)]
    return TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(name="ch1", endorsement_policy="OR(1..n)"),
        extra_channels=extra,
        orderer=OrdererConfig(kind="solo"))


def build(num_users=1000, cohorts_per_channel=2, rate=60, duration=6,
          channels=1, peers=2, seed=7, kind="unique", per_channel=None,
          user_rate=None, skew=0.0, key_space=50):
    topology = topology_with(channels, peers)
    workload = WorkloadConfig(
        arrival_rate=rate, duration=duration, warmup=1, cooldown=1,
        per_channel=per_channel, key_space=key_space,
        read_write_conflict_skew=skew,
        population=PopulationConfig(
            num_users=num_users, cohorts_per_channel=cohorts_per_channel,
            user_rate=user_rate))
    return FabricNetwork(topology, workload, seed=seed, workload_kind=kind)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

def test_plan_partitions_users_evenly_with_remainder_first():
    config = WorkloadConfig(
        arrival_rate=30,
        population=PopulationConfig(num_users=10, cohorts_per_channel=3))
    specs = plan_load(topology_with(), config)
    assert [spec.users for spec in specs] == [4, 3, 3]
    assert [spec.user_base for spec in specs] == [0, 4, 7]
    assert [spec.name for spec in specs] == ["cohort0", "cohort1",
                                             "cohort2"]
    # Even split of the aggregate rate across the channel's cohorts.
    assert [spec.rate for spec in specs] == pytest.approx([10, 10, 10])


def test_plan_is_channel_major_and_covers_all_channels():
    config = WorkloadConfig(
        arrival_rate=40,
        population=PopulationConfig(num_users=8, cohorts_per_channel=2))
    specs = plan_load(topology_with(channels=2), config)
    assert [spec.channel for spec in specs] == ["ch1", "ch1", "ch2", "ch2"]
    assert sum(spec.users for spec in specs) == 8
    # arrival_rate splits across channels first, then cohorts.
    assert all(spec.rate == pytest.approx(10) for spec in specs)


def test_plan_user_rate_scales_with_slice_size():
    config = WorkloadConfig(
        population=PopulationConfig(num_users=10, cohorts_per_channel=3,
                                    user_rate=2.0))
    specs = plan_load(topology_with(), config)
    assert [spec.rate for spec in specs] == pytest.approx([8.0, 6.0, 6.0])


def test_plan_per_channel_mix_overrides_rate_and_shape():
    config = WorkloadConfig(
        arrival_rate=100,
        population=PopulationConfig(num_users=100, cohorts_per_channel=2),
        per_channel={
            "ch1": ChannelWorkload(rate=80, workload="conflict",
                                   key_space=7, skew=1.5),
            "ch2": ChannelWorkload(rate=0),
        })
    specs = plan_load(topology_with(channels=2), config)
    ch1 = [spec for spec in specs if spec.channel == "ch1"]
    ch2 = [spec for spec in specs if spec.channel == "ch2"]
    assert [spec.rate for spec in ch1] == pytest.approx([40, 40])
    assert all(spec.workload == "conflict" and spec.key_space == 7
               and spec.skew == 1.5 for spec in ch1)
    assert all(spec.rate == 0 for spec in ch2)  # deliberately idle


def test_cohorts_without_users_are_idle_in_the_plan_and_the_model():
    # Two users over 2 channels x 2 cohorts: ch2's cohorts carry nobody,
    # so the simulator offers all its load on ch1 and so must the model.
    topology = topology_with(channels=2)
    workload = WorkloadConfig(
        arrival_rate=80,
        population=PopulationConfig(num_users=2, cohorts_per_channel=2))
    plan = plan_load(topology, workload)
    assert [(load.channel, load.users, load.rate) for load in plan] == [
        ("ch1", 1, 20.0), ("ch1", 1, 20.0), ("ch2", 0, 0.0),
        ("ch2", 0, 0.0)]
    prediction = PhaseModel(topology, workload).predict()
    assert prediction.offered == pytest.approx(40.0)
    assert [channel.rate for channel in prediction.channels] == [40.0, 0.0]


# ----------------------------------------------------------------------
# O(cohorts) scaling: population size is a pure parameter
# ----------------------------------------------------------------------

def test_million_users_spawn_cohort_many_clients():
    network = build(num_users=1_000_000, cohorts_per_channel=2,
                    channels=2, rate=40, duration=4)
    # 2 channels x 2 cohorts = 4 clients, regardless of the million users.
    assert len(network.clients) == 4
    assert sum(load.users for load in network.plan) == 1_000_000
    metrics = network.run_workload()
    assert metrics.overall_throughput > 0


def test_event_count_is_independent_of_population_size():
    counts = []
    for users in (1_000, 1_000_000):
        network = build(num_users=users, cohorts_per_channel=2,
                        rate=40, duration=4, seed=3)
        network.run_workload()
        counts.append(network.sim.events_processed)
    small, large = counts
    # Same rate, same cohorts: the schedule size must not grow with users
    # (the realizations differ slightly — user draws consume entropy from
    # the same stream — but a 1000x population is NOT 1000x the events).
    assert large < small * 1.5


# ----------------------------------------------------------------------
# Traffic shape and accounting
# ----------------------------------------------------------------------

def test_population_respects_aggregate_rate():
    network = build(num_users=10_000, rate=60, duration=6)
    network.run_workload()
    expected = 60 * 6
    assert network.workload.transactions_started == pytest.approx(
        expected, rel=0.2)


def test_per_cohort_phase_metrics_cover_all_cohorts():
    network = build(num_users=5_000, cohorts_per_channel=2, channels=2,
                    rate=80, duration=6)
    network.run_workload()
    per_cohort = network.cohort_metrics()
    assert sorted(per_cohort) == ["cohort0", "cohort1", "cohort2",
                                  "cohort3"]
    for metrics in per_cohort.values():
        assert metrics.overall_throughput > 0
        assert metrics.overall_latency > 0


def test_per_channel_metrics_reflect_heterogeneous_rates():
    network = build(
        num_users=4_000, cohorts_per_channel=1, channels=2, duration=6,
        per_channel={"ch1": ChannelWorkload(rate=60),
                     "ch2": ChannelWorkload(rate=15)})
    network.run_workload()
    per_channel = network.channel_metrics()
    assert per_channel["ch1"].overall_throughput > (
        2 * per_channel["ch2"].overall_throughput)


def test_idle_channel_cohorts_spawn_no_arrivals():
    network = build(
        num_users=1_000, cohorts_per_channel=1, channels=2, duration=4,
        per_channel={"ch1": ChannelWorkload(rate=40),
                     "ch2": ChannelWorkload(rate=0)})
    network.run_workload()
    idle = [client for client in network.clients if client.channel == "ch2"]
    assert idle and all(client.submitted == 0 for client in idle)
    assert network.workload.transactions_started > 0


def test_conflict_user_skew_becomes_key_contention():
    uniform = build(num_users=2_000, rate=80, duration=6, kind="conflict",
                    key_space=200, skew=0.0, seed=5)
    skewed = build(num_users=2_000, rate=80, duration=6, kind="conflict",
                   key_space=200, skew=2.5, seed=5)
    uniform_metrics = uniform.run_workload()
    skewed_metrics = skewed.run_workload()
    assert skewed_metrics.invalid_rate > uniform_metrics.invalid_rate


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def run_digested(seed, **kwargs):
    network = build(seed=seed, **kwargs)
    results = []

    def drive():
        results.append(network.run_workload())

    digest = digest_run(network.sim, drive, keep_records=False)
    return digest.hexdigest, results[0]


def test_same_seed_double_run_is_bit_identical():
    kwargs = dict(num_users=100_000, cohorts_per_channel=2, channels=2,
                  rate=60, duration=4)
    digest_a, metrics_a = run_digested(seed=11, **kwargs)
    digest_b, metrics_b = run_digested(seed=11, **kwargs)
    assert digest_a == digest_b
    assert metrics_a.as_dict() == metrics_b.as_dict()


def test_different_seed_changes_the_schedule():
    kwargs = dict(num_users=10_000, rate=60, duration=4)
    digest_a, _ = run_digested(seed=11, **kwargs)
    digest_b, _ = run_digested(seed=12, **kwargs)
    assert digest_a != digest_b
