"""repro: a protocol-complete simulation of Hyperledger Fabric v1.4.3,
reproducing "Performance Characterization and Bottleneck Analysis of
Hyperledger Fabric" (Wang & Chu, ICDCS 2020).

Quickstart::

    from repro import TopologyConfig, WorkloadConfig, run_experiment

    topology = TopologyConfig()              # 10 endorsing peers, solo, OR
    workload = WorkloadConfig(arrival_rate=150, duration=20)
    metrics = run_experiment(topology, workload)
    print(metrics.overall_throughput, metrics.overall_latency)

Package map:

- :mod:`repro.sim` — discrete-event kernel (processes, resources, network).
- :mod:`repro.msp` — Fabric CA, identities, signature verification.
- :mod:`repro.ledger` — blocks, world state, MVCC versions, history.
- :mod:`repro.chaincode` — contracts, rw-set stub, endorsement policies.
- :mod:`repro.peer` — endorsement and the validate/commit pipeline.
- :mod:`repro.orderer` — Solo, Kafka (+ ZooKeeper), and Raft services.
- :mod:`repro.client` — SDK flow and open-loop workload generation.
- :mod:`repro.fabric` — network assembly and experiment execution.
- :mod:`repro.metrics` — the paper's throughput/latency/block-time metrics.
- :mod:`repro.analysis` — the closed-form phase model and capacity planner.
- :mod:`repro.experiments` — regeneration of every figure and table.
"""

from repro.common.config import (
    ChannelConfig,
    OrdererConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.fabric.network import FabricNetwork
from repro.fabric.run import run_experiment
from repro.metrics.collector import PhaseMetrics
from repro.runtime.costs import CostModel

__version__ = "1.0.0"

__all__ = [
    "ChannelConfig",
    "CostModel",
    "FabricNetwork",
    "OrdererConfig",
    "PhaseMetrics",
    "TopologyConfig",
    "WorkloadConfig",
    "run_experiment",
    "__version__",
]
