"""The benchmark's three workloads, built through the public API only.

Each workload is one simulation at a time in one process: open-loop
clients at a fixed 250 tx/s offered rate with uniform arrivals, 15
simulated seconds, seeded by the benchmark's ``--seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.common.config import StateDBConfig, TopologyConfig, WorkloadConfig
from repro.experiments.runner import make_topology, make_workload
from repro.experiments.scale import make_scale_topology, make_scale_workload
from repro.fabric.network import FabricNetwork

#: Offered load of every workload, tx/s.
RATE = 250.0
#: Simulated seconds of offered load per run (plus stabilization and drain).
SIM_SECONDS = 15.0
#: ``FabricNetwork.run_workload``'s default drain after the load stops.
DRAIN = 5.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: typing.Callable[[float], tuple[TopologyConfig, WorkloadConfig]]
    workload_kind: str = "unique"
    #: ``repro perfbench`` scenario with the same configuration, whose
    #: committed golden digest pins the schedule at seed 1.
    golden_scenario: str | None = None

    def network(self, seed: int, sim_seconds: float) -> FabricNetwork:
        topology, workload = self.build(sim_seconds)
        return FabricNetwork(topology, workload, seed=seed,
                             workload_kind=self.workload_kind)

    def config_hash(self, sim_seconds: float) -> str:
        """SHA-256 over the full topology and workload configuration."""
        topology, workload = self.build(sim_seconds)
        blob = json.dumps({"topology": dataclasses.asdict(topology),
                           "workload": dataclasses.asdict(workload),
                           "workload_kind": self.workload_kind},
                          sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _solo_and5(seconds: float) -> tuple[TopologyConfig, WorkloadConfig]:
    return make_topology("solo", "AND5", 10), make_workload(RATE, seconds)


def _raft_couchdb_conflict(
        seconds: float) -> tuple[TopologyConfig, WorkloadConfig]:
    statedb = StateDBConfig(kind="couchdb", cache=True, bulk=True,
                            snapshot_interval=3)
    workload = dataclasses.replace(make_workload(RATE, seconds),
                                   key_space=10_000,
                                   read_write_conflict_skew=1.0)
    return make_topology("raft", "OR10", 10, statedb=statedb), workload


def _raft_scaleout(seconds: float) -> tuple[TopologyConfig, WorkloadConfig]:
    return (make_scale_topology(60, 4, orderer_kind="raft"),
            make_scale_workload(1_000_000, RATE, seconds))


#: Simulated results at seed 1 and 15 simulated seconds (also the values
#: of the matching ``repro perfbench`` scenarios).
REFERENCE_SECONDS = 15.0
REFERENCE: dict[str, dict[str, float]] = {
    "solo-and5-validate": {"sim.events": 541_013, "sim_tps": 210.0},
    "raft-couchdb-conflict": {"sim.events": 344_923, "sim_tps": 216.3},
    "raft-scaleout-60p4c": {"sim.events": 1_132_405, "sim_tps": 252.7},
}

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("solo-and5-validate",
             "Solo, AND5, 10 peers, LevelDB, unique keys: load past "
             "validate capacity, the paper's VSCC/MSP bottleneck",
             _solo_and5, golden_scenario="solo-and-leveldb"),
    Workload("raft-couchdb-conflict",
             "Raft, OR10, CouchDB cache+bulk+snapshots, Zipf "
             "read-modify-write: loads statedb, MVCC and ledger",
             _raft_couchdb_conflict, workload_kind="conflict"),
    Workload("raft-scaleout-60p4c",
             "Raft, 60 peers (50 committing-only), 4 channels, relay "
             "gossip, 1M users: loads kernel, gossip and commit fan-out",
             _raft_scaleout, golden_scenario="raft-population-scale"),
)}
