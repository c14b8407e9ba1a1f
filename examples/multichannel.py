#!/usr/bin/env python3
"""Channels: private subnets with independent policies and ledgers (§II).

Stands up one network carrying two channels — "payments" under a strict
AND endorsement policy and "telemetry" under OR — over the same peers and
the same Kafka ordering service (one partition per channel, §III).  Shows
that the channels order and commit independently, keep disjoint ledgers,
and pay different endorsement costs.

Run:  python examples/multichannel.py
"""

from repro import OrdererConfig, TopologyConfig, WorkloadConfig
from repro.common.config import ChannelConfig
from repro.fabric.network import FabricNetwork


def main() -> None:
    topology = TopologyConfig(
        num_endorsing_peers=4,
        channel=ChannelConfig(name="payments",
                              endorsement_policy="AND(1..n)"),
        extra_channels=[ChannelConfig(name="telemetry",
                                      endorsement_policy="OR(1..n)")],
        orderer=OrdererConfig(kind="kafka", num_osns=3))
    workload = WorkloadConfig(arrival_rate=60, duration=20, warmup=3,
                              cooldown=2, num_clients=4)
    network = FabricNetwork(topology, workload, seed=21)
    print("Two channels, one network: 'payments' (AND over 4 peers) and "
          "'telemetry' (OR),\nKafka ordering with one partition per "
          "channel...\n")
    metrics = network.run_workload()

    print(f"aggregate committed throughput: "
          f"{metrics.overall_throughput:.1f} tx/s\n")
    peer = network.peers[0]
    for channel in network.channel_names:
        ledger = peer.ledger_for(channel)
        txs = [tx for block in ledger.blocks for tx in block.transactions]
        endorsements = (len(txs[0].endorsements) if txs else 0)
        print(f"channel {channel!r}: height {ledger.height}, "
              f"{len(txs)} txs, {endorsements} endorsement(s) per tx, "
              f"{len(ledger.state)} state keys")
    alpha, beta = (peer.ledger_for(name) for name in network.channel_names)
    shared_keys = set(alpha.state.keys()) & set(beta.state.keys())
    print(f"\nstate keys shared between channels: {len(shared_keys)} "
          "(channels are isolated)")
    leader = network.orderer.broker_named(network.orderer.leader)
    for channel, partition in sorted(leader.partitions.items()):
        print(f"kafka partition {channel!r}: {len(partition.log)} items, "
              f"high watermark {partition.high_watermark}")
    network.assert_ledgers_consistent()
    print("\nAll peers hold identical chains on both channels.")


if __name__ == "__main__":
    main()
