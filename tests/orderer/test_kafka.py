"""Tests for the Kafka ordering service: ZooKeeper, brokers, ISR, failover."""

import pytest

from repro.common.config import OrdererConfig
from repro.orderer.kafka.service import KafkaOrderingService
from tests.orderer.helpers import (
    CHANNEL,
    Sink,
    drive,
    make_ca,
    make_context,
    make_envelope,
    orderer_identities,
)


def make_kafka(context, num_osns=2, num_brokers=3, num_zookeepers=3,
               replication_factor=3, batch_size=5, batch_timeout=1.0):
    ca = make_ca()
    config = OrdererConfig(kind="kafka", num_osns=num_osns,
                           num_brokers=num_brokers,
                           num_zookeepers=num_zookeepers,
                           replication_factor=replication_factor,
                           batch_size=batch_size,
                           batch_timeout=batch_timeout)
    return KafkaOrderingService(context, config, CHANNEL,
                                orderer_identities(ca, num_osns))


def test_partition_leader_elected_on_start():
    context = make_context()
    service = make_kafka(context)
    service.start()
    context.sim.run(until=1.0)
    assert service.leader == "broker0"
    leader = service.broker_named("broker0")
    assert leader.is_leader


def test_envelopes_ordered_and_delivered():
    context = make_context()
    service = make_kafka(context, batch_size=5)
    client = Sink(context, "client0")
    subscriber = Sink(context, "peersub")
    envelopes = [make_envelope(f"t{i}") for i in range(10)]
    drive(service, context, envelopes, client, subscriber)
    assert subscriber.committed_tx_ids() == [f"t{i}" for i in range(10)]
    assert sorted(client.acks) == sorted(f"t{i}" for i in range(10))


def test_all_osns_cut_identical_blocks():
    context = make_context()
    service = make_kafka(context, num_osns=3, batch_size=4)
    client = Sink(context, "client0")
    sub0 = Sink(context, "sub0")
    sub1 = Sink(context, "sub1")
    sub1.start()

    def subscribe_to_second_osn():
        yield context.sim.timeout(1.5)
        sub1.send(service.nodes[1].name, "deliver_subscribe", {})

    context.sim.process(subscribe_to_second_osn())
    envelopes = [make_envelope(f"t{i}") for i in range(8)]
    drive(service, context, envelopes, client, sub0)
    assert len(sub0.blocks) == 2
    assert len(sub1.blocks) == 2
    for left, right in zip(sub0.blocks, sub1.blocks):
        assert left.header_hash() == right.header_hash()


def test_replication_reaches_isr_followers():
    context = make_context()
    service = make_kafka(context, replication_factor=3)
    client = Sink(context, "client0")
    envelopes = [make_envelope(f"t{i}") for i in range(5)]
    drive(service, context, envelopes, client)
    logs = [service.broker_named(f"broker{i}").log for i in range(3)]
    assert len(logs[0]) >= 5
    assert logs[0] == logs[1] == logs[2]


def test_timeout_cut_via_ttc_marker():
    context = make_context()
    service = make_kafka(context, batch_size=100, batch_timeout=0.5)
    client = Sink(context, "client0")
    subscriber = Sink(context, "peersub")
    envelopes = [make_envelope("t0")]
    drive(service, context, envelopes, client, subscriber)
    assert len(subscriber.blocks) == 1
    assert len(subscriber.blocks[0]) == 1
    # The TTC marker sits in the Kafka log alongside the envelope.
    leader_log = service.broker_named("broker0").log
    kinds = [item[0] for item in leader_log]
    assert kinds.count("ttc") >= 1


def test_follower_broker_failure_shrinks_isr_and_continues():
    context = make_context()
    service = make_kafka(context, batch_size=5, replication_factor=3)
    client = Sink(context, "client0")
    subscriber = Sink(context, "peersub")

    def crash_follower():
        yield context.sim.timeout(2.5)
        service.broker_named("broker2").crash()

    context.sim.process(crash_follower())
    envelopes = [make_envelope(f"t{i}") for i in range(10)]
    drive(service, context, envelopes, client, subscriber,
          spacing=0.2, run_until=12.0)
    assert subscriber.committed_tx_ids() == [f"t{i}" for i in range(10)]
    leader = service.broker_named("broker0")
    assert "broker2" not in leader.isr


def test_leader_broker_failure_triggers_reelection():
    context = make_context()
    service = make_kafka(context, batch_size=2, replication_factor=3)
    client = Sink(context, "client0")
    subscriber = Sink(context, "peersub")

    def crash_leader():
        yield context.sim.timeout(3.0)
        service.broker_named("broker0").crash()

    context.sim.process(crash_leader())
    envelopes = [make_envelope(f"t{i}") for i in range(12)]
    drive(service, context, envelopes, client, subscriber,
          spacing=0.5, run_until=20.0)
    # A new leader took over from the remaining replicas.
    assert service.leader in ("broker1", "broker2")
    # Service kept ordering after failover; some in-flight envelopes may be
    # lost (crash-fault), but progress resumed.
    post_failover = [tx for tx in subscriber.committed_tx_ids()
                     if int(tx[1:]) >= 8]
    assert post_failover


def test_zookeeper_session_expiry_removes_dead_broker():
    context = make_context()
    service = make_kafka(context)
    service.start()
    context.sim.run(until=1.0)
    assert "broker1" in service.zookeeper.alive_brokers
    service.broker_named("broker1").crash()
    context.sim.run(until=4.0)
    assert "broker1" not in service.zookeeper.alive_brokers


def test_replication_factor_one_commits_without_followers():
    context = make_context()
    service = make_kafka(context, num_brokers=1, num_zookeepers=1,
                         replication_factor=1, batch_size=3)
    client = Sink(context, "client0")
    subscriber = Sink(context, "peersub")
    envelopes = [make_envelope(f"t{i}") for i in range(3)]
    drive(service, context, envelopes, client, subscriber)
    assert subscriber.committed_tx_ids() == ["t0", "t1", "t2"]


def test_osn_identity_count_must_match():
    from repro.common.errors import ConfigurationError

    context = make_context()
    ca = make_ca()
    config = OrdererConfig(kind="kafka", num_osns=2)
    with pytest.raises(ConfigurationError):
        KafkaOrderingService(context, config, CHANNEL,
                             orderer_identities(ca, 1))
