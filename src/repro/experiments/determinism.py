"""End-to-end determinism checks over whole Fabric configurations.

Glue between the generic runtime sanitizer
(:mod:`repro.sim.sanitizer`) and the benchmark harness: build a network
point, run it with an attached trace digest, run it *again* from the same
seed, and demand byte-identical schedules and metrics.  This is what
``repro check-determinism`` executes for Solo, Kafka, and Raft.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.common.config import StateDBConfig
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.network import FabricNetwork
from repro.sim.sanitizer import (
    DeterminismReport,
    TraceDigest,
    digest_run,
    run_twice_and_diff,
)

#: Small-but-representative defaults: enough load to exercise endorse /
#: order / validate on every backend while keeping a double run fast.
CHECK_PEERS = 4
CHECK_RATE = 60.0
CHECK_DURATION = 4.0


@dataclasses.dataclass
class PointCheck:
    """Determinism verdict for one (orderer, policy, rate) configuration."""

    orderer_kind: str
    policy: str
    rate: float
    seed: int
    report: DeterminismReport
    metrics_identical: bool
    throughput: float
    statedb_kind: str = "leveldb"
    #: Whether both runs produced bit-identical critical-path summaries
    #: (the telemetry layer itself must be deterministic, not just the
    #: schedule underneath it).
    critical_path_identical: bool = True

    @property
    def ok(self) -> bool:
        return (self.report.identical and self.metrics_identical
                and self.critical_path_identical)

    def render(self) -> str:
        status = "ok" if self.ok else "FAILED"
        cp = ("identical" if self.critical_path_identical else "DIVERGED")
        header = (f"[{status}] {self.orderer_kind} / {self.policy} / "
                  f"{self.statedb_kind} @ "
                  f"{self.rate:g} tx/s, seed {self.seed}: "
                  f"{self.throughput:.1f} tx/s committed, metrics "
                  f"{'identical' if self.metrics_identical else 'DIVERGED'}"
                  f", critical-path summary {cp}")
        return header + "\n" + _indent(self.report.render())


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def critical_path_hash(network: FabricNetwork) -> str:
    """SHA-256 of the run's critical-path summary (canonical JSON).

    Hashing the *telemetry output* (rather than the schedule) proves the
    observability layer itself is deterministic: same seed, same spans,
    same extracted paths, bit-identical attribution.
    """
    summary = network.critical_path_report().as_dict()
    payload = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def run_digested_point(orderer_kind: str, policy: str = "AND2",
                       rate: float = CHECK_RATE,
                       peers: int = CHECK_PEERS,
                       duration: float = CHECK_DURATION,
                       seed: int = 1,
                       keep_records: bool = True,
                       statedb: StateDBConfig | None = None,
                       workload_kind: str = "unique"
                       ) -> tuple[TraceDigest, dict[str, float], str]:
    """Run one network point with the trace digest attached.

    The run executes with tracing enabled, so the schedule digest doubles
    as proof that the telemetry layer is schedule-neutral — it must match
    the digests of untraced runs.  Returns the digest, the run's windowed
    metrics as a dict, and the critical-path summary hash, so double-run
    checks compare telemetry as well as schedules and metrics.
    """
    topology = make_topology(orderer_kind, policy, peers, statedb=statedb)
    workload = make_workload(rate, duration)
    network = FabricNetwork(topology, workload, seed=seed,
                            workload_kind=workload_kind,
                            observe=True)
    metrics: list[dict[str, float]] = []

    def drive() -> None:
        metrics.append(network.run_workload().as_dict())

    digest = digest_run(network.sim, drive, keep_records=keep_records)
    return digest, metrics[0], critical_path_hash(network)


def check_point_determinism(orderer_kind: str, policy: str = "AND2",
                            rate: float = CHECK_RATE,
                            peers: int = CHECK_PEERS,
                            duration: float = CHECK_DURATION,
                            seed: int = 1,
                            keep_records: bool = True,
                            statedb: StateDBConfig | None = None,
                            workload_kind: str = "unique") -> PointCheck:
    """Same-seed double run of one configuration, diffed."""
    metrics_by_run: list[dict[str, float]] = []
    cp_hashes: list[str] = []

    def run_once() -> TraceDigest:
        digest, metrics, cp_hash = run_digested_point(
            orderer_kind, policy=policy, rate=rate, peers=peers,
            duration=duration, seed=seed, keep_records=keep_records,
            statedb=statedb, workload_kind=workload_kind)
        metrics_by_run.append(metrics)
        cp_hashes.append(cp_hash)
        return digest

    report = run_twice_and_diff(run_once, keep_records=keep_records)
    # Identical schedules imply identical metrics; compare anyway so a
    # digest-implementation bug cannot mask a metrics divergence.
    metrics_identical = metrics_by_run[0] == metrics_by_run[1]
    return PointCheck(
        orderer_kind=orderer_kind, policy=policy, rate=rate, seed=seed,
        report=report, metrics_identical=metrics_identical,
        throughput=metrics_by_run[0].get("overall_throughput", 0.0),
        statedb_kind=statedb.kind if statedb is not None else "leveldb",
        critical_path_identical=cp_hashes[0] == cp_hashes[1])
