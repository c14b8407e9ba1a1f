"""Tests for configuration validation."""

import pytest

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.common.errors import ConfigurationError


def test_default_topology_is_valid():
    TopologyConfig().validate()


def test_defaults_match_paper_table_and_sections():
    orderer = OrdererConfig()
    assert orderer.batch_size == 100      # §III default
    assert orderer.batch_timeout == 1.0   # §III default
    assert orderer.partitions == 1        # §III Kafka default
    assert orderer.replication_factor == 3
    workload = WorkloadConfig()
    assert workload.tx_size == 1          # §IV 1-byte transactions
    assert workload.ordering_timeout == 3.0  # §IV.C client timeout
    topology = TopologyConfig()
    assert topology.network_bandwidth == 125_000_000.0  # 1 Gbps in bytes/s


def test_unknown_orderer_kind_rejected():
    with pytest.raises(ConfigurationError):
        OrdererConfig(kind="pbft").validate()


def test_solo_must_be_single_node():
    with pytest.raises(ConfigurationError):
        OrdererConfig(kind="solo", num_osns=3).validate()


def test_kafka_replication_bounded_by_brokers():
    with pytest.raises(ConfigurationError):
        OrdererConfig(kind="kafka", num_brokers=2,
                      replication_factor=3).validate()


def test_kafka_single_partition_enforced():
    with pytest.raises(ConfigurationError):
        OrdererConfig(kind="kafka", partitions=2).validate()


def test_raft_multi_node_is_valid():
    OrdererConfig(kind="raft", num_osns=5).validate()


def test_batch_size_must_be_positive():
    with pytest.raises(ConfigurationError):
        OrdererConfig(batch_size=0).validate()


def test_batch_timeout_must_be_positive():
    with pytest.raises(ConfigurationError):
        OrdererConfig(batch_timeout=0).validate()


def test_workload_rate_zero_is_valid_idle():
    # Zero rate is a valid idle workload (e.g. a standby channel or a
    # drain-only run); only negative rates are configuration errors.
    WorkloadConfig(arrival_rate=0).validate()
    with pytest.raises(ConfigurationError):
        WorkloadConfig(arrival_rate=-1).validate()


def test_workload_window_must_remain():
    with pytest.raises(ConfigurationError):
        WorkloadConfig(duration=4, warmup=3, cooldown=2).validate()


def test_workload_arrival_process_names():
    WorkloadConfig(arrival_process="poisson").validate()
    with pytest.raises(ConfigurationError):
        WorkloadConfig(arrival_process="bursty").validate()


NAN, INF = float("nan"), float("inf")


def _non_finite_cases():
    from repro.common.config import ChannelWorkload, PopulationConfig

    def workload(field, value):
        return WorkloadConfig(**{field: value}).validate

    cases = [
        ("batch_timeout", NAN, OrdererConfig(batch_timeout=NAN).validate),
        ("batch_timeout", INF, OrdererConfig(batch_timeout=INF).validate),
        ("rate", NAN, lambda: ChannelWorkload(rate=NAN).validate("ch")),
        ("rate", INF, lambda: ChannelWorkload(rate=INF).validate("ch")),
        ("skew", NAN, lambda: ChannelWorkload(skew=NAN).validate("ch")),
        ("user_rate", NAN,
         PopulationConfig(num_users=1, user_rate=NAN).validate),
        ("user_rate", INF,
         PopulationConfig(num_users=1, user_rate=INF).validate),
    ]
    for field in ("arrival_rate", "duration", "ordering_timeout",
                  "endorsement_timeout", "resubmit_backoff"):
        cases += [(field, NAN, workload(field, NAN)),
                  (field, INF, workload(field, INF))]
    for field in ("resubmit_jitter", "warmup", "cooldown"):
        cases.append((field, NAN, workload(field, NAN)))
    cases += [("read_write_conflict_skew", NAN,
               workload("read_write_conflict_skew", NAN)),
              ("read_write_conflict_skew", INF,
               workload("read_write_conflict_skew", INF))]
    for field in ("network_bandwidth", "network_latency", "network_jitter"):
        cases += [(field, value, TopologyConfig(**{field: value}).validate)
                  for value in (NAN, INF)]
    cases.append(("network_bandwidth", 0.0,
                  TopologyConfig(network_bandwidth=0.0).validate))
    for field in ("raft_election_timeout", "raft_heartbeat_interval",
                  "kafka_session_timeout", "kafka_heartbeat_interval",
                  "kafka_isr_ack_timeout"):
        cases += [(field, value, OrdererConfig(**{field: value}).validate)
                  for value in (NAN, INF, -1.0)]
    return [pytest.param(field, validate, id=f"{field}={value}")
            for field, value, validate in cases]


@pytest.mark.parametrize("field, validate", _non_finite_cases())
def test_non_finite_values_rejected_naming_the_field(field, validate):
    # A NaN slips past a plain ``x < 0`` check, and an infinite rate,
    # delay or horizon cannot be scheduled; both must fail before a run.
    with pytest.raises(ConfigurationError, match=field):
        validate()


def test_channel_requires_name_and_policy():
    with pytest.raises(ConfigurationError):
        ChannelConfig(name="").validate()
    with pytest.raises(ConfigurationError):
        ChannelConfig(endorsement_policy="").validate()


def test_topology_needs_an_endorsing_peer():
    with pytest.raises(ConfigurationError):
        TopologyConfig(num_endorsing_peers=0).validate()


def test_num_peers_sums_endorsing_and_committing():
    topology = TopologyConfig(num_endorsing_peers=3,
                              num_committing_only_peers=2)
    assert topology.num_peers == 5


def test_workload_window_error_names_all_three_fields():
    with pytest.raises(ConfigurationError) as excinfo:
        WorkloadConfig(duration=10, warmup=6, cooldown=4).validate()
    message = str(excinfo.value)
    assert "warmup" in message
    assert "cooldown" in message
    assert "duration" in message
    assert "6" in message and "4" in message and "10" in message


def test_workload_negative_warmup_and_cooldown_rejected():
    with pytest.raises(ConfigurationError):
        WorkloadConfig(warmup=-1).validate()
    with pytest.raises(ConfigurationError):
        WorkloadConfig(cooldown=-0.5).validate()


def test_channel_workload_mix_validation():
    from repro.common.config import ChannelWorkload

    ChannelWorkload(rate=0).validate("idle")
    ChannelWorkload(rate=5, workload="conflict", tx_size=64,
                    key_space=10, skew=1.0).validate("busy")
    with pytest.raises(ConfigurationError):
        ChannelWorkload(rate=-1).validate("bad")
    with pytest.raises(ConfigurationError):
        ChannelWorkload(workload="chaos").validate("bad")
    with pytest.raises(ConfigurationError):
        ChannelWorkload(tx_size=0).validate("bad")
    with pytest.raises(ConfigurationError):
        ChannelWorkload(key_space=0).validate("bad")
    with pytest.raises(ConfigurationError):
        ChannelWorkload(skew=-0.1).validate("bad")


def test_population_config_validation():
    from repro.common.config import PopulationConfig

    PopulationConfig(num_users=1).validate()
    PopulationConfig(num_users=1_000_000, cohorts_per_channel=8,
                     user_rate=0.001).validate()
    with pytest.raises(ConfigurationError):
        PopulationConfig(num_users=0).validate()
    with pytest.raises(ConfigurationError):
        PopulationConfig(num_users=10, cohorts_per_channel=0).validate()
    with pytest.raises(ConfigurationError):
        PopulationConfig(num_users=10, user_rate=-1).validate()


def test_starved_channels_are_rejected_with_names():
    from repro.common.config import ChannelConfig

    topology = TopologyConfig(
        channel=ChannelConfig(name="a"),
        extra_channels=[ChannelConfig(name="b"), ChannelConfig(name="c")])
    workload = WorkloadConfig(num_clients=2)
    with pytest.raises(ConfigurationError) as excinfo:
        topology.validate(workload)
    message = str(excinfo.value)
    assert "'c'" in message  # the starved channel is named


def test_per_channel_mix_must_cover_every_channel():
    from repro.common.config import ChannelConfig, ChannelWorkload

    topology = TopologyConfig(
        channel=ChannelConfig(name="a"),
        extra_channels=[ChannelConfig(name="b")])
    workload = WorkloadConfig(
        num_clients=2, per_channel={"a": ChannelWorkload(rate=10)})
    with pytest.raises(ConfigurationError) as excinfo:
        topology.validate(workload)
    assert "'b'" in str(excinfo.value)
    assert "rate=0" in str(excinfo.value)


def test_per_channel_mix_rejects_unknown_channels():
    from repro.common.config import ChannelConfig, ChannelWorkload

    topology = TopologyConfig(channel=ChannelConfig(name="a"))
    workload = WorkloadConfig(
        num_clients=1,
        per_channel={"a": ChannelWorkload(rate=10),
                     "ghost": ChannelWorkload(rate=10)})
    with pytest.raises(ConfigurationError) as excinfo:
        topology.validate(workload)
    assert "ghost" in str(excinfo.value)


def test_population_mode_skips_starvation_check():
    from repro.common.config import ChannelConfig, PopulationConfig

    # Cohort clients are created per cohort, not via num_clients, so a
    # small num_clients must not trip the starvation check.
    topology = TopologyConfig(
        channel=ChannelConfig(name="a"),
        extra_channels=[ChannelConfig(name="b")])
    workload = WorkloadConfig(
        num_clients=1, population=PopulationConfig(num_users=100))
    topology.validate(workload)


def test_gossip_fanout_validation():
    TopologyConfig(gossip=True, gossip_fanout=4).validate()
    with pytest.raises(ConfigurationError):
        TopologyConfig(gossip_fanout=-1).validate()
