"""Table regeneration: Tables I, II, and III of the paper."""

from __future__ import annotations

from repro.common.config import OrdererConfig, TopologyConfig, WorkloadConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import run_point, search_peak
from repro.runtime.costs import CostModel

#: The paper's Table II (throughput, tps) — "-" cells were not measured.
PAPER_TABLE2 = {
    ("OR10", 1): 50, ("OR10", 3): 150, ("OR10", 5): 246,
    ("OR10", 7): 310, ("OR10", 10): 300,
    ("OR3", 1): 50, ("OR3", 3): 150,
    ("AND5", 1): 50, ("AND5", 3): 150, ("AND5", 5): 210,
    ("AND3", 1): 50, ("AND3", 3): 150,
}

#: The paper's Table III: (execute latency, order&validate latency).
PAPER_TABLE3 = {
    ("OR10", 1): (0.25, 0.551), ("OR10", 3): (0.28, 0.505),
    ("OR10", 5): (0.30, 0.432), ("OR10", 7): (0.32, 0.660),
    ("OR10", 10): (0.32, 0.80),
    ("OR3", 1): (0.25, 0.551), ("OR3", 3): (0.28, 0.505),
    ("AND5", 1): (0.30, 0.55), ("AND5", 3): (0.39, 0.43),
    ("AND5", 5): (0.57, 0.70),
    ("AND3", 1): (0.285, 0.55), ("AND3", 3): (0.38, 0.43),
}

#: The configurations measured per policy (peer counts with paper values).
TABLE2_CELLS = [
    ("OR10", [1, 3, 5, 7, 10]),
    ("OR3", [1, 3]),
    ("AND5", [1, 3, 5]),
    ("AND3", [1, 3]),
]


def run_table1() -> ExperimentResult:
    """Table I: the experimental configuration, paper vs simulation."""
    topology = TopologyConfig()
    orderer = OrdererConfig()
    workload = WorkloadConfig()
    costs = CostModel()
    rows = [
        ["CPU", "i7-2600 3.4GHz / i7-920 2.67GHz",
         f"{costs.peer_cores}-core simulated machines, calibrated costs"],
        ["Memory", "4 GB DDR3", "not a constraint in simulation"],
        ["Network", "1 Gbps Ethernet",
         f"{topology.network_bandwidth * 8 / 1e9:.0f} Gbps, "
         f"{topology.network_latency * 1e6:.0f} us latency"],
        ["Hard disk", "SEAGATE ST3250310AS",
         f"commit I/O {costs.commit_per_block_io * 1e3:.0f} ms/block + "
         f"{costs.leveldb_write_per_key_io * 1e3:.2f} ms/tx"],
        ["Fabric version", "1.4.3 LTS", "v1.4 execute-order-validate model"],
        ["SDK", "fabric-sdk-node 1.0.0 / Node.js 8.16.2",
         f"client CPU {1e3 * (costs.client_prep_cpu + costs.client_collect_cpu + costs.client_submit_cpu):.0f} ms/tx "
         f"(~{costs.client_capacity():.0f} tps per client)"],
        ["BatchSize", "100", str(orderer.batch_size)],
        ["BatchTimeout", "1 s", f"{orderer.batch_timeout} s"],
        ["Kafka partition/replication", "1 / 3",
         f"{orderer.partitions} / {orderer.replication_factor}"],
        ["Ordering timeout", "3 s", f"{workload.ordering_timeout} s"],
        ["TLS", "enabled", "enabled" if topology.tls_enabled else "disabled"],
    ]
    return ExperimentResult(
        experiment_id="tab1",
        title="Experimental configuration (paper testbed vs simulation)",
        columns=["item", "paper", "simulation"],
        rows=rows)


def _rates_for(policy: str, peers: int, mode: str) -> list[float]:
    """Arrival rates bracketing the expected peak for a peak search."""
    client_cap = 50.0 * peers
    validate_cap = 320.0 if policy.startswith("OR") else 225.0
    expected = min(client_cap, validate_cap)
    if mode == "quick":
        return [expected, expected * 1.25]
    return [expected * 0.75, expected, expected * 1.25, expected * 1.5]


def run_table2_table3(mode: str = "quick", seed: int = 1,
                      orderer_kind: str = "solo"
                      ) -> tuple[ExperimentResult, ExperimentResult]:
    """Tables II and III: peak throughput and latency vs #endorsing peers.

    Paper findings reproduced: throughput scales ~50 tps per endorsing peer
    (one client per peer) under every policy, capped by the validate phase
    at ~300 tps (OR) / ~210 tps (AND5); latency rises with utilization.
    Latencies are measured at ~85% of the measured peak, below saturation.
    """
    duration = 12.0 if mode == "quick" else 25.0
    throughput_rows = []
    latency_rows = []
    for policy, peer_counts in TABLE2_CELLS:
        for peers in peer_counts:
            rates = _rates_for(policy, peers, mode)
            peak, _points = search_peak(orderer_kind, policy, peers, rates,
                                        duration=duration, seed=seed)
            paper_peak = PAPER_TABLE2.get((policy, peers))
            throughput_rows.append([policy, peers, peak, paper_peak])
            near_peak = run_point(orderer_kind, policy, max(10.0, 0.85 * peak),
                                  peers=peers, duration=duration, seed=seed)
            paper_latency = PAPER_TABLE3.get((policy, peers), (None, None))
            latency_rows.append([
                policy, peers,
                near_peak.metrics.execute_latency, paper_latency[0],
                near_peak.metrics.order_validate_latency, paper_latency[1]])
    table2 = ExperimentResult(
        experiment_id="tab2",
        title="Peak throughput vs number of endorsing peers",
        columns=["policy", "endorsing_peers", "throughput_tps",
                 "paper_tps"],
        rows=throughput_rows,
        notes=["ANDx with fewer than x deployed peers degrades to AND over "
               "the deployed peers (DESIGN.md §3)"])
    table3 = ExperimentResult(
        experiment_id="tab3",
        title="Latency vs number of endorsing peers (at ~85% of peak)",
        columns=["policy", "endorsing_peers", "execute_latency_s",
                 "paper_execute_s", "order_validate_latency_s",
                 "paper_order_validate_s"],
        rows=latency_rows)
    return table2, table3
