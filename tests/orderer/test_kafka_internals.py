"""Unit tests for Kafka broker internals and the ZooKeeper ensemble."""


from repro.common.config import OrdererConfig
from repro.orderer.kafka.service import KafkaOrderingService
from repro.orderer.kafka.zookeeper import ZooKeeperEnsemble
from tests.orderer.helpers import (
    CHANNEL,
    Sink,
    drive,
    make_ca,
    make_context,
    make_envelope,
    orderer_identities,
)


def make_kafka(context, **kwargs):
    defaults = dict(num_osns=2, num_brokers=3, num_zookeepers=3,
                    replication_factor=3, batch_size=5, batch_timeout=1.0)
    defaults.update(kwargs)
    ca = make_ca()
    config = OrdererConfig(kind="kafka", **defaults)
    return KafkaOrderingService(context, config, CHANNEL,
                                orderer_identities(ca, defaults["num_osns"]))


def started(context, **kwargs):
    service = make_kafka(context, **kwargs)
    service.start()
    context.sim.run(until=1.0)
    return service


def test_startup_elects_exactly_once():
    context = make_context()
    service = started(context)
    # Concurrent registrations must not produce election churn.
    assert service.zookeeper.leader_epoch == 1
    assert service.leader == "broker0"


def test_followers_track_high_watermark():
    context = make_context()
    service = started(context)
    client = Sink(context, "client0")
    client.start()
    for index in range(10):
        client.send(service.nodes[0].name, "broadcast",
                    make_envelope(f"t{index}"), size=900)
    context.sim.run(until=4.0)
    leader = service.broker_named("broker0")
    followers = [service.broker_named("broker1"),
                 service.broker_named("broker2")]
    assert leader.high_watermark >= 10
    for follower in followers:
        # Piggybacked HW lags the leader by at most one in-flight message.
        assert follower.high_watermark >= leader.high_watermark - 2


def test_replica_reorder_buffer_prevents_log_gaps():
    # Deliver replicate messages out of order directly to a follower.
    context = make_context()
    service = started(context)
    follower = service.broker_named("broker1")
    leader = service.broker_named("broker0")
    base = len(follower.log)
    epoch = follower.leader_epoch
    from repro.sim.network import Message

    item1 = ("ttc", 101)
    item2 = ("ttc", 102)
    # Offset base+1 arrives before offset base.
    context.network.send(Message(leader.name, follower.name, "replicate",
                                 {"channel": CHANNEL, "offset": base + 1,
                                  "item": item2, "epoch": epoch,
                                  "leader_hw": 0}, size=64))
    context.sim.run(until=1.5)
    assert len(follower.log) == base  # buffered, not appended
    context.network.send(Message(leader.name, follower.name, "replicate",
                                 {"channel": CHANNEL, "offset": base,
                                  "item": item1, "epoch": epoch,
                                  "leader_hw": 0}, size=64))
    context.sim.run(until=2.0)
    assert len(follower.log) == base + 2
    assert follower.log[base] == item1
    assert follower.log[base + 1] == item2
    assert follower._default_partition.replica_buffer == {}


def test_recovered_broker_rejoins_isr_and_catches_up():
    context = make_context()
    service = started(context)
    client = Sink(context, "client0")
    client.start()
    victim = service.broker_named("broker2")
    victim.crash()
    for index in range(8):
        client.send(service.nodes[0].name, "broadcast",
                    make_envelope(f"t{index}"), size=900)
    context.sim.run(until=4.0)
    leader = service.broker_named("broker0")
    assert "broker2" not in leader.isr
    assert len(victim.log) < len(leader.log)
    victim.recover()
    context.sim.run(until=8.0)
    assert "broker2" in leader.isr
    assert victim.log == leader.log


def test_stale_epoch_replicate_ignored():
    context = make_context()
    service = started(context)
    follower = service.broker_named("broker1")
    from repro.sim.network import Message

    before = len(follower.log)
    context.network.send(Message("broker0", follower.name, "replicate",
                                 {"channel": CHANNEL, "offset": before,
                                  "item": ("ttc", (CHANNEL, 1)),
                                  "epoch": follower.leader_epoch - 1,
                                  "leader_hw": 0}, size=64))
    context.sim.run(until=2.0)
    assert len(follower.log) == before


def test_produce_forwarded_by_non_leader():
    context = make_context()
    service = started(context)
    follower = service.broker_named("broker1")
    from repro.sim.network import Message

    context.network.send(Message("osn0", follower.name, "produce",
                                 {"channel": CHANNEL,
                                  "item": ("ttc", (CHANNEL, 999))},
                                 size=64))
    context.sim.run(until=2.0)
    leader = service.broker_named("broker0")
    assert ("ttc", (CHANNEL, 999)) in leader.log


def test_zookeeper_quorum_write_survives_minority_failure():
    context = make_context()
    service = started(context, num_zookeepers=5)
    # Crash two of five ensemble members (a minority).
    service.zookeeper.nodes[3].crash()
    service.zookeeper.nodes[4].crash()
    client = Sink(context, "client0")
    subscriber = Sink(context, "peersub")
    envelopes = [make_envelope(f"q{i}") for i in range(5)]
    drive(service, context, envelopes, client, subscriber, start_at=2.0)
    assert subscriber.committed_tx_ids() == [f"q{i}" for i in range(5)]


def test_zookeeper_ensemble_leader_is_lowest_live_node():
    context = make_context()
    service = started(context)
    ensemble = service.zookeeper
    assert ensemble.leader_node() is ensemble.nodes[0]
    ensemble.nodes[0].crash()
    assert ensemble.leader_node() is ensemble.nodes[1]


def test_ensemble_all_down_returns_no_leader():
    context = make_context()
    config = OrdererConfig(kind="kafka")
    ensemble = ZooKeeperEnsemble(context, config, ["broker0"])
    for node in ensemble.nodes:
        node.crash()
    assert ensemble.leader_node() is None


def test_watcher_gets_current_leader_on_subscribe():
    context = make_context()
    service = started(context)
    watcher = Sink(context, "latecomer")
    notifications = []

    def on_leader(message):
        notifications.append(message.payload)
        return
        yield

    watcher.on("partition_leader", on_leader)
    watcher.start()
    watcher.send("zk0", "zk_watch_leader", {})
    context.sim.run(until=2.0)
    assert notifications
    assert notifications[-1]["leader"] == "broker0"
    assert "broker0" in notifications[-1]["alive_replicas"]
