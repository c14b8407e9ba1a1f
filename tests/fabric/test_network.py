"""Integration tests: the fully wired Fabric network."""

import dataclasses

import pytest

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.common.types import KVWrite
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.network import FabricNetwork
from repro.runtime.costs import CostModel


def build(kind="solo", peers=3, policy="OR(1..n)", rate=40, duration=8,
          seed=17, gossip=False, committing_only=0, **orderer_kwargs):
    num_osns = orderer_kwargs.pop(
        "num_osns", 1 if kind == "solo" else 3)
    topology = TopologyConfig(
        num_endorsing_peers=peers,
        num_committing_only_peers=committing_only,
        channel=ChannelConfig(endorsement_policy=policy),
        orderer=OrdererConfig(kind=kind, num_osns=num_osns,
                              **orderer_kwargs),
        gossip=gossip)
    workload = WorkloadConfig(arrival_rate=rate, duration=duration,
                              warmup=2, cooldown=1)
    return FabricNetwork(topology, workload, seed=seed)


@pytest.mark.parametrize("kind", ["solo", "kafka", "raft"])
def test_throughput_tracks_arrival_below_capacity(kind):
    network = build(kind=kind, rate=40)
    metrics = network.run_workload()
    assert metrics.overall_throughput == pytest.approx(40, rel=0.12)
    assert metrics.rejected_rate == 0
    network.assert_ledgers_consistent()


def test_all_peers_reach_same_height_and_state():
    network = build(rate=30)
    network.run_workload()
    heights = {peer.ledger.height for peer in network.peers}
    assert len(heights) == 1
    states = {tuple(
        (key, peer.ledger.state.get(key).value)
        for key in sorted(peer.ledger.state.keys()))
        for peer in network.peers}
    assert len(states) == 1


def test_ledger_check_names_the_peer_whose_state_diverged():
    network = build(rate=20, duration=4)
    network.run_workload()
    network.assert_ledgers_consistent()
    channel = network.channel_names[0]
    planted = network.peers[2]
    planted.ledger_for(channel).state.apply_write(
        KVWrite("planted", b"x"), version=(1, 0))
    with pytest.raises(AssertionError,
                       match=f"state of {planted.name} on {channel} "):
        network.assert_ledgers_consistent()


def test_committing_only_peers_commit_but_do_not_endorse():
    network = build(peers=2, committing_only=1, rate=20)
    network.run_workload()
    committing_peer = network.peers[-1]
    assert not committing_peer.is_endorsing
    assert committing_peer.endorser is None
    assert committing_peer.ledger.height == network.peers[0].ledger.height
    assert committing_peer.ledger.height > 1


def test_gossip_mode_disseminates_blocks_to_all_peers():
    network = build(rate=20, gossip=True)
    network.run_workload()
    heights = {peer.ledger.height for peer in network.peers}
    assert len(heights) == 1
    assert network.peers[0].gossip.blocks_forwarded > 0
    network.assert_ledgers_consistent()


def test_block_time_near_batch_timeout_at_low_rate():
    # At 10 tps with BatchSize=100, blocks cut on the 1 s BatchTimeout.
    network = build(rate=10, duration=10)
    metrics = network.run_workload()
    assert metrics.block_time == pytest.approx(1.0, abs=0.2)


def test_block_time_shrinks_at_high_rate():
    network = build(peers=5, rate=200, duration=8)
    metrics = network.run_workload()
    # 200 tps / BatchSize 100 → a block roughly every 0.5 s.
    assert metrics.block_time == pytest.approx(0.5, abs=0.15)


def test_and_policy_end_to_end():
    network = build(policy="AND(1..n)", peers=3, rate=30)
    metrics = network.run_workload()
    assert metrics.overall_throughput == pytest.approx(30, rel=0.15)
    # Every committed tx carries 3 endorsements.
    block = network.peers[0].ledger.blocks.get(1)
    assert all(len(tx.endorsements) == 3 for tx in block.transactions)


def test_validate_phase_is_bottleneck_past_capacity():
    network = build(peers=10, policy="OR10", rate=400, duration=10)
    metrics = network.run_workload()
    # Execute keeps up with arrivals; validate saturates near 300.
    assert metrics.execute_throughput > 370
    assert metrics.overall_throughput < 340
    assert metrics.overall_latency > 1.0


def test_tls_disabled_topology_runs():
    topology = TopologyConfig(
        num_endorsing_peers=2,
        channel=ChannelConfig(endorsement_policy="OR(1..n)"),
        orderer=OrdererConfig(kind="solo"), tls_enabled=False)
    workload = WorkloadConfig(arrival_rate=20, duration=6, warmup=1,
                              cooldown=1)
    network = FabricNetwork(topology, workload, seed=3)
    assert network.context.costs.tls_per_message_cpu == 0.0
    metrics = network.run_workload()
    assert metrics.overall_throughput > 10


def test_tls_disabled_network_leaves_the_callers_cost_model_alone():
    costs = CostModel()
    topology = dataclasses.replace(make_topology("solo", "OR10", 4),
                                   tls_enabled=False)
    network = FabricNetwork(topology, make_workload(10, 4), costs=costs)
    assert network.context.costs.tls_per_message_cpu == 0.0
    assert costs.tls_per_message_cpu == CostModel().tls_per_message_cpu
    tls_on = FabricNetwork(make_topology("solo", "OR10", 4),
                           make_workload(10, 4), costs=costs)
    assert tls_on.context.costs.tls_per_message_cpu > 0.0


def test_only_peers_holding_listeners_notify_commits():
    network = build(peers=2, committing_only=2, rate=20, gossip=True)
    calls = {peer.name: 0 for peer in network.peers}

    def counting(peer):
        notify = peer.notify_commit

        def wrapper(tx_id, code):
            calls[peer.name] += 1
            notify(tx_id, code)
        return wrapper

    for peer in network.peers:
        peer.notify_commit = counting(peer)
    metrics = network.run_workload()
    assert metrics.overall_throughput > 10
    committing = [peer for peer in network.peers if not peer.is_endorsing]
    assert len(committing) == 2
    assert all(peer.ledger.height > 1 for peer in committing)
    assert [calls[peer.name] for peer in committing] == [0, 0]
    assert sum(calls.values()) > 0


def test_run_experiment_facade():
    from repro import run_experiment

    topology = TopologyConfig(
        num_endorsing_peers=2,
        channel=ChannelConfig(endorsement_policy="OR(1..n)"),
        orderer=OrdererConfig(kind="solo"))
    workload = WorkloadConfig(arrival_rate=20, duration=6, warmup=1,
                              cooldown=1)
    metrics = run_experiment(topology, workload, seed=5)
    assert metrics.overall_throughput == pytest.approx(20, rel=0.2)


def test_identical_seeds_identical_results_across_orderers():
    for kind in ["solo", "kafka", "raft"]:
        first = build(kind=kind, seed=23, rate=25, duration=6)
        second = build(kind=kind, seed=23, rate=25, duration=6)
        assert (first.run_workload().as_dict()
                == second.run_workload().as_dict()), kind


def test_peer_named_lookup():
    network = build()
    assert network.peer_named("peer0") is network.peers[0]
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        network.peer_named("ghost")


@pytest.mark.parametrize("kind", ["solo", "raft", "kafka"])
def test_ordering_service_names_its_machines_and_leader(kind):
    network = FabricNetwork(make_topology(kind, "AND2", 4),
                            make_workload(10, duration=4), seed=5)
    orderer = network.orderer
    names = [node.name for node in
             network.peers + network.clients + orderer.machines]
    assert sorted(names) == sorted(network.context.network.nodes)
    assert len(set(names)) == len(names)
    network.start()
    network.sim.run(until=2.0)
    assert network._resolve_fault_alias("@leader") == orderer.leader
    if kind == "solo":
        expected = "osn0"
    elif kind == "raft":
        [expected] = [osn.name for osn in orderer.nodes if osn.raft.is_leader]
    else:
        expected = orderer.zookeeper.partition_leader
    assert expected is not None
    assert orderer.leader == expected
