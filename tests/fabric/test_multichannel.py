"""Integration tests for multi-channel deployments (§II channels)."""

import pytest

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.common.errors import ConfigurationError
from repro.fabric.network import FabricNetwork


def build(kind="solo", seed=31, policies=("OR(1..n)", "AND(1..n)"),
          rate=40, duration=8):
    topology = TopologyConfig(
        num_endorsing_peers=3,
        channel=ChannelConfig(name="alpha", endorsement_policy=policies[0]),
        extra_channels=[ChannelConfig(name="beta",
                                      endorsement_policy=policies[1])],
        orderer=OrdererConfig(kind=kind,
                              num_osns=1 if kind == "solo" else 3))
    workload = WorkloadConfig(arrival_rate=rate, duration=duration,
                              warmup=2, cooldown=1, num_clients=4)
    return FabricNetwork(topology, workload, seed=seed)


def test_duplicate_channel_names_rejected():
    topology = TopologyConfig(
        channel=ChannelConfig(name="same"),
        extra_channels=[ChannelConfig(name="same")])
    with pytest.raises(ConfigurationError):
        topology.validate()


def test_peers_join_all_channels():
    network = build()
    for peer in network.peers:
        assert sorted(peer.channels) == ["alpha", "beta"]
        assert peer.ledger_for("alpha") is not peer.ledger_for("beta")


def test_clients_spread_across_channels():
    network = build()
    channels = [client.channel for client in network.clients]
    assert channels.count("alpha") == 2
    assert channels.count("beta") == 2


@pytest.mark.parametrize("kind", ["solo", "kafka", "raft"])
def test_channels_are_isolated_ledgers(kind):
    network = build(kind=kind)
    metrics = network.run_workload()
    assert metrics.overall_throughput == pytest.approx(40, rel=0.15)
    network.assert_ledgers_consistent()
    peer = network.peers[0]
    alpha = peer.ledger_for("alpha")
    beta = peer.ledger_for("beta")
    # Both channels made progress, independently numbered.
    assert alpha.height > 1
    assert beta.height > 1
    # No transaction appears on both channels.
    alpha_txs = {tx.tx_id for block in alpha.blocks
                 for tx in block.transactions}
    beta_txs = {tx.tx_id for block in beta.blocks
                for tx in block.transactions}
    assert alpha_txs.isdisjoint(beta_txs)
    assert alpha_txs and beta_txs
    # Keys written on alpha never appear in beta's state.
    assert not (set(alpha.state.keys()) & set(beta.state.keys()))


def test_per_channel_endorsement_policies():
    network = build()
    network.run_workload()
    peer = network.peers[0]
    alpha_block = peer.ledger_for("alpha").blocks.get(1)
    beta_block = peer.ledger_for("beta").blocks.get(1)
    # alpha uses OR (1 endorsement), beta uses AND over 3 peers.
    assert all(len(tx.endorsements) == 1
               for tx in alpha_block.transactions)
    assert all(len(tx.endorsements) == 3
               for tx in beta_block.transactions)


def test_kafka_partition_per_channel():
    network = build(kind="kafka")
    network.run_workload()
    leader = network.orderer.broker_named(
        network.orderer.leader)
    assert sorted(leader.partitions) == ["alpha", "beta"]
    assert len(leader.partitions["alpha"].log) > 0
    assert len(leader.partitions["beta"].log) > 0


def test_block_numbering_is_per_channel():
    network = build()
    network.run_workload()
    osn = network.orderer.nodes[0]
    alpha_chain = osn.chain("alpha")
    beta_chain = osn.chain("beta")
    assert alpha_chain.blocks_cut > 0
    assert beta_chain.blocks_cut > 0
    peer = network.peers[0]
    assert peer.ledger_for("alpha").height == alpha_chain.next_block_number
    assert peer.ledger_for("beta").height == beta_chain.next_block_number


def test_wrong_channel_client_is_rejected():
    network = build()
    network.start()
    client = network.clients[0]  # bound to alpha
    # Hand-force a proposal on a channel the client may not write.
    client.channel = "beta"
    client.policy = network.policies["beta"]
    process = client.invoke("noop", "write", ["k", "v"])
    network.sim.run(until=20.0)
    _tx_id, outcome = process.value
    assert outcome.startswith("endorsement failed")


def test_heterogeneous_per_channel_rates_same_seed_digest():
    """Same-seed double run with per-channel mixes is bit-identical."""
    from repro.common.config import ChannelWorkload
    from repro.sim.sanitizer import digest_run

    def run_once(seed):
        topology = TopologyConfig(
            num_endorsing_peers=3,
            channel=ChannelConfig(name="alpha",
                                  endorsement_policy="OR(1..n)"),
            extra_channels=[ChannelConfig(name="beta",
                                          endorsement_policy="AND(1..n)")],
            orderer=OrdererConfig(kind="solo"))
        workload = WorkloadConfig(
            arrival_rate=0, duration=6, warmup=2, cooldown=1,
            num_clients=4,
            per_channel={"alpha": ChannelWorkload(rate=50),
                         "beta": ChannelWorkload(rate=12,
                                                 workload="conflict",
                                                 key_space=9)})
        network = FabricNetwork(topology, workload, seed=seed)
        results = []

        def drive():
            results.append(network.run_workload())

        digest = digest_run(network.sim, drive, keep_records=False)
        return digest.hexdigest, results[0], network

    digest_a, metrics_a, network = run_once(seed=17)
    digest_b, metrics_b, _ = run_once(seed=17)
    assert digest_a == digest_b
    assert metrics_a.as_dict() == metrics_b.as_dict()
    per_channel = network.channel_metrics()
    assert per_channel["alpha"].overall_throughput > (
        2 * per_channel["beta"].overall_throughput)
    assert per_channel["beta"].invalid_rate > 0
