"""Fault-injection experiments: consensus leader-kill recovery curves.

Three scenarios exercise the network under the failures it is built to
survive:

- ``raft-leader-kill`` — crash the current Raft leader OSN mid-run; the
  followers detect the silent leader, elect a successor within the election
  timeout, and clients resubmit the transactions the dead leader ate;
- ``kafka-broker-kill`` — crash the partition-leader broker; ZooKeeper
  expires its session, promotes the next in-sync replica, and the OSNs
  re-subscribe their consume streams;
- ``peer-wipe-recover`` — crash an endorsing peer whose CouchDB state
  database does not survive the crash (``wipe_on_crash``); on recovery the
  peer restores its latest checkpoint snapshot and replays only the blocks
  committed after it, instead of re-executing the chain from genesis.

Each scenario reports the recovery metrics
(:class:`~repro.faults.recovery.RecoveryReport`) against explicit pass
criteria, and — because the fault schedule runs on the simulation clock
with seeded randomness — replays byte-identically from the same seed,
which :func:`check_scenario_determinism` verifies with a double run.
"""

from __future__ import annotations

import dataclasses

from repro.common.config import StateDBConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.experiments.runner import make_topology
from repro.fabric.network import FabricNetwork
from repro.faults import FaultSchedule, RecoveryReport
from repro.sim.sanitizer import (
    DeterminismReport,
    TraceDigest,
    digest_run,
    run_twice_and_diff,
)

#: Minimum fraction of fault-time in-flight transactions that must commit.
MIN_RECOVERED_FRACTION = 0.95


@dataclasses.dataclass(frozen=True)
class FaultScenario:
    """One named fault experiment: topology, workload, and schedule."""

    name: str
    orderer_kind: str
    description: str
    policy: str = "AND2"
    peers: int = 4
    rate: float = 60.0
    duration: float = 12.0
    warmup: float = 2.0
    cooldown: float = 1.0
    #: Fault times relative to workload start (the schedule itself runs on
    #: the simulation clock, so stabilization time is added when built).
    crash_offset: float = 4.0
    recover_offset: float = 8.0
    #: Pass criterion: re-election must complete within this many seconds.
    max_reelection: float = 1.5
    ordering_timeout: float = 1.5
    max_resubmits: int = 4
    resubmit_backoff: float = 0.25
    #: What to kill: an alias (``"@leader"``) or a concrete node name.
    target: str = "@leader"
    #: Leader-kill scenarios expect a re-election; peer kills do not.
    expect_reelection: bool = True
    #: Peer-wipe scenarios expect a snapshot-based state-DB catch-up.
    expect_catchup: bool = False
    statedb: StateDBConfig | None = None
    workload_kind: str = "unique"

    @property
    def crash_time(self) -> float:
        """Absolute simulated crash time (workload starts after
        stabilization)."""
        return FabricNetwork.STABILIZATION + self.crash_offset

    @property
    def recover_time(self) -> float:
        return FabricNetwork.STABILIZATION + self.recover_offset

    def build_schedule(self) -> FaultSchedule:
        return (FaultSchedule()
                .crash(self.target, at=self.crash_time)
                .recover(self.target, at=self.recover_time))

    def build_network(self, seed: int = 1) -> FabricNetwork:
        topology = make_topology(self.orderer_kind, self.policy, self.peers,
                                 statedb=self.statedb)
        workload = WorkloadConfig(
            arrival_rate=self.rate, duration=self.duration,
            warmup=self.warmup, cooldown=self.cooldown, tx_size=1,
            ordering_timeout=self.ordering_timeout,
            endorsement_timeout=self.ordering_timeout,
            max_resubmits=self.max_resubmits,
            resubmit_backoff=self.resubmit_backoff)
        return FabricNetwork(topology, workload, seed=seed,
                             faults=self.build_schedule(),
                             workload_kind=self.workload_kind)


#: Re-election bounds: Raft elects within one randomized election timeout
#: (uniform in [T, 2T], T = 0.5 s) plus replication of the no-op entry;
#: Kafka needs a full session timeout (1 s) plus the session monitor's poll
#: grid (0.25 s) plus the quorum write and watcher notification.
SCENARIOS: dict[str, FaultScenario] = {
    scenario.name: scenario for scenario in (
        FaultScenario(
            name="raft-leader-kill", orderer_kind="raft",
            description="crash the Raft leader OSN mid-run, recover it 4 s "
                        "later",
            max_reelection=1.5),
        FaultScenario(
            name="kafka-broker-kill", orderer_kind="kafka",
            description="crash the partition-leader Kafka broker mid-run, "
                        "recover it 4 s later",
            max_reelection=2.5),
        FaultScenario(
            name="peer-wipe-recover", orderer_kind="solo",
            description="crash an endorsing peer whose CouchDB state is "
                        "wiped; on recovery it restores the latest "
                        "snapshot and replays the tail blocks",
            target="peer2", expect_reelection=False, expect_catchup=True,
            statedb=StateDBConfig(kind="couchdb", cache=True, bulk=True,
                                  snapshot_interval=3, wipe_on_crash=True),
            workload_kind="conflict"),
    )
}


@dataclasses.dataclass
class FaultScenarioResult:
    """One scenario run: metrics, recovery analysis, pass criteria."""

    scenario: FaultScenario
    seed: int
    metrics: dict[str, float]
    recovery: RecoveryReport
    injected: list[tuple[float, str, str]]

    @property
    def reelection_ok(self) -> bool:
        if not self.scenario.expect_reelection:
            return True
        return (self.recovery.time_to_reelection is not None
                and self.recovery.time_to_reelection
                <= self.scenario.max_reelection)

    @property
    def catchup_ok(self) -> bool:
        """Expected state-DB rebuilds restored a snapshot, not genesis."""
        if not self.scenario.expect_catchup:
            return True
        return self.recovery.caught_up_from_snapshot

    @property
    def recovered_ok(self) -> bool:
        return self.recovery.recovered_fraction >= MIN_RECOVERED_FRACTION

    @property
    def throughput_ok(self) -> bool:
        return self.recovery.throughput_recovered

    @property
    def ok(self) -> bool:
        return (self.reelection_ok and self.catchup_ok
                and self.recovered_ok and self.throughput_ok)

    def render(self) -> str:
        def mark(passed: bool) -> str:
            return "ok" if passed else "FAILED"

        scenario = self.scenario
        lines = [
            f"[{mark(self.ok)}] {scenario.name} (seed {self.seed}): "
            f"{scenario.description}",
            "  injected: " + "; ".join(
                f"t={at:g}s {kind} {target}"
                for at, kind, target in self.injected),
        ]
        lines.extend("  " + line
                     for line in self.recovery.render().splitlines())
        criteria = []
        if scenario.expect_reelection:
            criteria.append(f"re-election <= {scenario.max_reelection:g}s "
                            f"[{mark(self.reelection_ok)}]")
        if scenario.expect_catchup:
            criteria.append(
                f"state catch-up from snapshot [{mark(self.catchup_ok)}]")
        criteria.append(f"in-flight recovery >= "
                        f"{MIN_RECOVERED_FRACTION * 100:.0f}% "
                        f"[{mark(self.recovered_ok)}]")
        criteria.append(f"throughput within 10% [{mark(self.throughput_ok)}]")
        lines.append("  criteria: " + ", ".join(criteria))
        return "\n".join(lines)


def get_scenario(name: str) -> FaultScenario:
    scenario = SCENARIOS.get(name)
    if scenario is None:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown fault scenario {name!r} (known: {known})")
    return scenario


def run_fault_scenario(name: str, seed: int = 1) -> FaultScenarioResult:
    """Run one fault scenario and analyse its recovery."""
    scenario = get_scenario(name)
    return _run(scenario, seed, scenario.build_network(seed=seed))


def _run(scenario: FaultScenario, seed: int,
         network: FabricNetwork) -> FaultScenarioResult:
    metrics = network.run_workload().as_dict()
    injector = network.fault_injector
    return FaultScenarioResult(
        scenario=scenario, seed=seed, metrics=metrics,
        recovery=network.recovery_report(scenario.crash_time),
        injected=list(injector.injected) if injector else [])


def run_digested_scenario(name: str, seed: int = 1,
                          keep_records: bool = True
                          ) -> tuple[TraceDigest, FaultScenarioResult]:
    """Run one scenario with the trace digest attached (double-run input)."""
    scenario = get_scenario(name)
    network = scenario.build_network(seed=seed)
    results: list[FaultScenarioResult] = []
    digest = digest_run(
        network.sim, lambda: results.append(_run(scenario, seed, network)),
        keep_records=keep_records)
    return digest, results[0]


@dataclasses.dataclass
class ScenarioCheck:
    """Same-seed double-run verdict for one fault scenario."""

    scenario: FaultScenario
    seed: int
    report: DeterminismReport
    results_identical: bool
    result: FaultScenarioResult

    @property
    def ok(self) -> bool:
        return self.report.identical and self.results_identical

    def render(self) -> str:
        status = "ok" if self.ok else "FAILED"
        header = (f"[{status}] {self.scenario.name} determinism, seed "
                  f"{self.seed}: recovery analysis "
                  f"{'identical' if self.results_identical else 'DIVERGED'}"
                  f" across runs")
        indented = "\n".join("  " + line
                             for line in self.report.render().splitlines())
        return header + "\n" + indented


def check_scenario_determinism(name: str, seed: int = 1,
                               keep_records: bool = True) -> ScenarioCheck:
    """Run one scenario twice from the same seed and diff everything."""
    results: list[FaultScenarioResult] = []

    def run_once() -> TraceDigest:
        digest, result = run_digested_scenario(
            name, seed=seed, keep_records=keep_records)
        results.append(result)
        return digest

    report = run_twice_and_diff(run_once, keep_records=keep_records)
    identical = (results[0].metrics == results[1].metrics
                 and results[0].recovery == results[1].recovery
                 and results[0].injected == results[1].injected)
    return ScenarioCheck(scenario=get_scenario(name), seed=seed,
                         report=report, results_identical=identical,
                         result=results[0])
