"""Wall-clock benchmarks of the simulator itself, with golden digests.

Every paper artifact is a sweep of full network simulations, so the
wall-clock cost of the pure-Python event loop bounds how many scenarios we
can explore.  This module measures that cost directly: it times reference
runs across the configuration matrix the paper cares about (solo/raft/kafka
ordering, OR and AND endorsement policies, LevelDB and CouchDB state
backends) and reports, per scenario:

- ``wall_s``       — host seconds for the run (the quantity being optimised);
- ``sim_tps``      — committed transactions per *simulated* second, which
  must not move when only the host-side implementation changes;
- ``events_per_s`` — kernel events popped per host second, the simulator's
  native throughput metric (independent of the modelled workload).

Correctness oracle: each run executes with a
:class:`~repro.sim.sanitizer.TraceDigest` attached, and the resulting
digest is compared against a *golden* value committed under
``tests/fabric/golden/``.  A matching digest proves a refactor changed
speed but not the event schedule (same pops, same order, same times).
Optimisations that intentionally remove bookkeeping events (the
uncontended-resource fast path, daemon/eager processes) change the digest
by construction; those were validated instead by bit-identical
:class:`~repro.metrics.collector.PhaseMetrics` across the whole scenario
matrix before regenerating the goldens (see EXPERIMENTS.md).  Regenerating
is always a deliberate act: ``repro perfbench --update-golden`` or
``pytest --update-golden``.

CLI::

    repro perfbench                       # full scenarios, report only
    repro perfbench --smoke               # scaled-down subset (CI gate)
    repro perfbench --check-golden        # fail on any digest divergence
    repro perfbench --out BENCH_PR10.json # write the benchmark trajectory
    repro perfbench --repeats 3           # best-of-3 timing (recording runs)
    repro perfbench --owners              # host time by pop owner, too
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pathlib
import time
import typing

from repro.common.config import StateDBConfig
from repro.experiments.farm import run_farm
from repro.experiments.runner import (
    TRACE_SAMPLE_INTERVAL,
    make_topology,
    make_workload,
)
from repro.fabric.network import FabricNetwork
from repro.sim.sanitizer import TraceDigest, event_owner

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.metrics.collector import PhaseMetrics
    from repro.sim.events import Event

#: Seed used for every golden digest; changing it invalidates the goldens.
GOLDEN_SEED = 1

#: Benchmark trajectory file for this PR (see ISSUE 10 / EXPERIMENTS.md).
BENCH_FILE = "BENCH_PR10.json"


@dataclasses.dataclass(frozen=True)
class PerfScenario:
    """One benchmarked configuration at full (paper-style) scale."""

    name: str
    orderer_kind: str
    policy: str
    statedb_kind: str = "leveldb"
    rate: float = 250.0
    duration: float = 15.0
    peers: int = 10
    #: Channels in the deployment; >1 switches to the scale-out topology
    #: (committing-only fleet beyond the endorsing core, relay-tree gossip).
    channels: int = 1
    #: Aggregated client population; >0 loads the run from user cohorts
    #: (:func:`~repro.common.config.plan_load`) instead of one client per
    #: endorsing peer.
    population_users: int = 0

    def at_scale(self, scale: str) -> "PerfScenario":
        """The scenario at ``"full"`` or scaled-down ``"smoke"`` size.

        Smoke scale matches the determinism-check defaults (4 peers,
        60 tx/s for 4 simulated seconds): every phase of the pipeline is
        exercised on every backend while a run stays under a second.
        Population scenarios keep 12 peers at smoke so the scale-out
        topology (committing-only peers, relay-tree gossip) stays covered;
        the user count is untouched — population size is O(1) in cost.
        """
        if scale == "full":
            return self
        if scale != "smoke":
            raise ValueError(f"unknown scale {scale!r}")
        peers = 12 if self.population_users > 0 else 4
        return dataclasses.replace(self, rate=60.0, duration=4.0,
                                   peers=peers)

    def statedb_config(self) -> StateDBConfig:
        if self.statedb_kind == "couchdb":
            # The representative CouchDB deployment: Thakkar-style read
            # cache and bulk batching on, periodic snapshots.
            return StateDBConfig(kind="couchdb", cache=True, bulk=True,
                                 snapshot_interval=3)
        return StateDBConfig(kind=self.statedb_kind)


def _scenario_list() -> list[PerfScenario]:
    return [
        PerfScenario("solo-or-leveldb", "solo", "OR10"),
        # The reference Fig. 2-style point: Solo under AND5 driven past the
        # validate-phase capacity — the paper's (and our) worst hot path.
        PerfScenario("solo-and-leveldb", "solo", "AND5"),
        PerfScenario("raft-or-leveldb", "raft", "OR10"),
        PerfScenario("raft-and-leveldb", "raft", "AND5"),
        PerfScenario("kafka-or-leveldb", "kafka", "OR10"),
        PerfScenario("kafka-and-leveldb", "kafka", "AND5"),
        PerfScenario("solo-and-couchdb", "solo", "AND5",
                     statedb_kind="couchdb"),
        PerfScenario("raft-and-couchdb", "raft", "AND5",
                     statedb_kind="couchdb"),
        # The scale-out configuration: a committing fleet past the
        # endorsing core, four channels, and a million-user aggregated
        # population — the wall-clock proof that population size is a
        # pure parameter (its cost tracks cohorts and rate, not users).
        PerfScenario("raft-population-scale", "raft", "OR(1..n)",
                     peers=60, channels=4, population_users=1_000_000),
    ]


SCENARIOS: dict[str, PerfScenario] = {
    scenario.name: scenario for scenario in _scenario_list()}

#: The scenario whose wall-clock time anchors the PR-5 speedup target.
REFERENCE_SCENARIO = "solo-and-leveldb"

#: CI smoke subset: one scaled-down scenario per orderer type, plus the
#: CouchDB backend so both state databases stay covered.
SMOKE_SCENARIOS = ["solo-and-leveldb", "raft-and-leveldb",
                   "kafka-or-leveldb", "solo-and-couchdb",
                   "raft-population-scale"]


@dataclasses.dataclass
class PerfResult:
    """One timed, digested scenario run."""

    scenario: str
    scale: str
    seed: int
    wall_s: float
    sim_tps: float
    events_per_s: float
    events: int
    digest: str
    #: Golden verdict: True/False once checked, None when unchecked.
    golden_ok: bool | None = None
    #: The committed golden digest, when a check ran and one existed.
    golden_expected: str | None = None
    #: Host time by pop owner, when asked for (``--owners``).
    owners: "PopOwnerCensus | None" = None

    def bench_entry(self) -> dict[str, typing.Any]:
        """The ``BENCH_PR10.json`` row for this run."""
        return {
            "wall_s": round(self.wall_s, 4),
            "sim_tps": round(self.sim_tps, 2),
            "events_per_s": round(self.events_per_s, 1),
            "events": self.events,
            "digest": self.digest,
            "scale": self.scale,
            "seed": self.seed,
        }


def _build_network(scenario: PerfScenario, seed: int,
                   observe: bool = False) -> FabricNetwork:
    if scenario.population_users > 0:
        from repro.experiments.scale import (
            make_scale_topology,
            make_scale_workload,
        )

        topology = make_scale_topology(scenario.peers, scenario.channels,
                                       orderer_kind=scenario.orderer_kind)
        workload = make_scale_workload(scenario.population_users,
                                       scenario.rate, scenario.duration)
    else:
        topology = make_topology(scenario.orderer_kind, scenario.policy,
                                 scenario.peers,
                                 statedb=scenario.statedb_config())
        workload = make_workload(scenario.rate, scenario.duration)
    # Observed builds slice the run as ``repro trace`` does, so the golden
    # check of an observed digest covers the periodic checkpoints too.
    return FabricNetwork(topology, workload, seed=seed, observe=observe,
                         sample_interval=TRACE_SAMPLE_INTERVAL)


def run_scenario(name: str, seed: int = GOLDEN_SEED,
                 scale: str = "full", repeats: int = 1) -> PerfResult:
    """Benchmark one scenario: timed run(s) plus a digested companion run.

    The timed run executes without the determinism sanitizer attached, so
    ``wall_s`` measures the simulator itself rather than the SHA-256
    digesting (which roughly doubles a run's cost).  A second run from the
    same seed then produces the :class:`TraceDigest` compared against the
    golden value — same seed, same schedule, so the digest certifies the
    timed run too.

    ``repeats > 1`` re-times the identical run and keeps the *fastest*
    wall clock (best-of-N).  Every repeat computes the same schedule, the
    same metrics, and the same digest — only host noise varies — so
    best-of-N estimates the run's intrinsic cost, the quantity the bench
    trajectory tracks.  The timed section leaves the garbage collector
    as every user's run has it: :meth:`~repro.sim.core.Simulation.run`
    pauses the automatic collector inside its loop, because a run
    allocates no reference cycles (``tests/sim/test_acyclic.py`` is the
    contract that makes the pause safe; a cycle a run did create would be
    held until ``run`` returns), and any pass outside the loop is part of
    the run's cost.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    scenario = SCENARIOS[name].at_scale(scale)
    wall = float("inf")
    for _ in range(repeats):
        timed = _build_network(scenario, seed)
        # Start each repeat from the same heap: the previous repeat's
        # network is garbage now, and collecting it is not this run's cost.
        gc.collect()
        # Wall-clock reads are the whole point of this harness: the
        # measured quantity is host time, never fed back into the
        # simulation.
        started = time.perf_counter()  # simlint: disable=SL002
        metrics = timed.run_workload()
        elapsed = time.perf_counter() - started  # simlint: disable=SL002
        wall = min(wall, elapsed)
    events = timed.sim.events_processed
    return PerfResult(
        scenario=name, scale=scale, seed=seed, wall_s=wall,
        sim_tps=metrics.overall_throughput,
        events_per_s=events / wall if wall > 0 else 0.0,
        events=events, digest=digest_scenario(name, seed=seed, scale=scale))


def digest_scenario(name: str, seed: int = GOLDEN_SEED,
                    scale: str = "full", observe: bool = False) -> str:
    """The trace digest of one (untimed) scenario run.

    This is the digest-only half of :func:`run_scenario`, exposed so the
    golden-digest tests can check schedules without paying for a second,
    timed run.  ``observe=True`` runs with span tracing and resource
    monitors attached, checkpointed every ``repro trace`` slice interval:
    the digest must not change, which is the standing proof that
    observability is schedule-neutral.
    """
    scenario = SCENARIOS[name].at_scale(scale)
    network = _build_network(scenario, seed, observe=observe)
    digest = TraceDigest(network.sim, keep_records=False).attach()
    try:
        network.run_workload()
    finally:
        digest.detach()
    return digest.hexdigest


#: Keys a census report lists before summing the rest.
CENSUS_ROWS = 12


class PopOwnerCensus:
    """Host time by pop owner: a read-only :meth:`Simulation.set_trace`
    hook.

    Each pop is keyed by its event type and its owner, named by the trace
    digest's rule (:func:`~repro.sim.sanitizer.event_owner`).  The host
    time between two consecutive pops is charged to the first one's key,
    so a key's time covers its callbacks, the kernel's work up to the
    next pop and the hook's own cost.  A cyclic-collector pass is the
    exception: :meth:`on_collect`, a ``gc.callbacks`` hook, moves its
    seconds out of the interval it interrupted into the census's own
    collector row.  Both hooks read the event, the pass and the clock
    only, so the run pops exactly the events of an unhooked run.
    """

    def __init__(self) -> None:
        self.pops: dict[tuple[str, str], int] = {}
        self.seconds: dict[tuple[str, str], float] = {}
        #: Collector passes by generation (young, middle, full).
        self.collections = [0, 0, 0]
        self.collector_s = 0.0
        self._last: tuple[str, str] | None = None
        self._since = 0.0
        self._collect_started = 0.0

    def record(self, when: float, seq: int, event: "Event") -> None:
        now = time.perf_counter()  # simlint: disable=SL002
        self._charge(now)
        key = (type(event).__name__, event_owner(event))
        self.pops[key] = self.pops.get(key, 0) + 1
        self._last = key
        self._since = now

    def on_collect(self, phase: str, info: dict[str, int]) -> None:
        """``gc.callbacks`` hook: charge a pass to the collector row and
        take it out of the current pop's interval."""
        now = time.perf_counter()  # simlint: disable=SL002
        if phase == "start":
            self._collect_started = now
            return
        spent = now - self._collect_started
        self.collections[info["generation"]] += 1
        self.collector_s += spent
        self._since += spent

    def stop(self) -> None:
        """Charge the last pop's interval (call when the run returns)."""
        self._charge(time.perf_counter())  # simlint: disable=SL002
        self._last = None

    def _charge(self, now: float) -> None:
        last = self._last
        if last is not None:
            self.seconds[last] = (self.seconds.get(last, 0.0)
                                  + now - self._since)

    def render(self) -> str:
        """The :data:`CENSUS_ROWS` costliest keys by host time, then the
        rest, then the collector's passes (young/middle/full)."""
        total_pops = sum(self.pops.values())
        total_s = sum(self.seconds.values()) + self.collector_s
        ranked = sorted(self.pops,
                        key=lambda key: (-self.seconds.get(key, 0.0), key))
        shown = [(*key, self.pops[key], self.seconds.get(key, 0.0))
                 for key in ranked[:CENSUS_ROWS]]
        rest = ranked[CENSUS_ROWS:]
        if rest:
            shown.append(("", "everything else",
                          sum(self.pops[key] for key in rest),
                          sum(self.seconds.get(key, 0.0) for key in rest)))
        width = max([len("owner")] + [len(row[1]) for row in shown])
        lines = [f"{total_pops:,} pops, {total_s:.2f} host s "
                 f"(hook included)",
                 f"{'event':<10}  {'owner':<{width}}  {'pops':>6}  "
                 f"{'host':>6}  {'us/pop':>7}"]
        for event_type, owner, pops, seconds in shown:
            lines.append(
                f"{event_type:<10}  {owner:<{width}}  "
                f"{pops / total_pops:>6.1%}  "
                f"{seconds / total_s if total_s else 0.0:>6.1%}  "
                f"{1e6 * seconds / pops:>7.1f}")
        passes = "/".join(str(count) for count in self.collections)
        lines.append(
            f"{'gc':<10}  {'collector':<{width}}  {'-':>6}  "
            f"{self.collector_s / total_s if total_s else 0.0:>6.1%}  "
            f"{passes} passes, {self.collector_s:.2f} s")
        return "\n".join(lines)


def census_scenario(name: str, seed: int = GOLDEN_SEED, scale: str = "full",
                    ) -> "tuple[PopOwnerCensus, PhaseMetrics]":
    """One untimed scenario run under a :class:`PopOwnerCensus`; returns
    the census and the run's metrics."""
    network = _build_network(SCENARIOS[name].at_scale(scale), seed)
    census = PopOwnerCensus()
    network.sim.set_trace(census)
    gc.callbacks.append(census.on_collect)
    try:
        metrics = network.run_workload()
    finally:
        gc.callbacks.remove(census.on_collect)
        network.sim.set_trace(None)
    census.stop()
    return census, metrics


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

def golden_key(name: str, scale: str) -> str:
    return f"{name}@{scale}"


def golden_path() -> pathlib.Path:
    """Location of the committed golden digests.

    ``REPRO_GOLDEN_DIR`` overrides the default (the repository's
    ``tests/fabric/golden/``, resolved relative to this file so the path
    works from any working directory).
    """
    override = os.environ.get("REPRO_GOLDEN_DIR")
    if override:
        return pathlib.Path(override) / "digests.json"
    return (pathlib.Path(__file__).resolve().parents[3]
            / "tests" / "fabric" / "golden" / "digests.json")


def load_goldens(path: pathlib.Path | None = None) -> dict[str, str]:
    path = path if path is not None else golden_path()
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_goldens(goldens: dict[str, str],
                 path: pathlib.Path | None = None) -> pathlib.Path:
    path = path if path is not None else golden_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(goldens.items())), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# The benchmark driver
# ----------------------------------------------------------------------

@dataclasses.dataclass
class PerfBenchReport:
    """All scenario results of one ``repro perfbench`` invocation."""

    results: list[PerfResult]
    scale: str
    seed: int
    checked: bool

    @property
    def ok(self) -> bool:
        """False iff a golden check ran and found a divergence."""
        return not any(result.golden_ok is False for result in self.results)

    def write_bench_file(self, path: str | pathlib.Path) -> None:
        payload = {result.scenario: result.bench_entry()
                   for result in self.results}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        width = max(len(result.scenario) for result in self.results)
        lines = [f"perfbench ({self.scale} scale, seed {self.seed})",
                 f"{'scenario':<{width}}  {'wall_s':>8}  {'sim_tps':>8}  "
                 f"{'events/s':>10}  golden"]
        for result in self.results:
            if result.golden_ok is None:
                verdict = "-"
            elif result.golden_ok:
                verdict = "ok"
            else:
                verdict = ("MISSING" if result.golden_expected is None
                           else "DIVERGED")
            lines.append(
                f"{result.scenario:<{width}}  {result.wall_s:>8.2f}  "
                f"{result.sim_tps:>8.1f}  {result.events_per_s:>10.0f}  "
                f"{verdict}")
        for result in self.results:
            if result.owners is not None:
                lines.append(f"\npop owners of {result.scenario}: "
                             + result.owners.render())
        return "\n".join(lines)


def _scenario_worker(task: tuple[str, int, str, int]) -> PerfResult:
    """Farm worker: one scenario, rebuilt from its explicit task tuple."""
    name, seed, scale, repeats = task
    return run_scenario(name, seed=seed, scale=scale, repeats=repeats)


def _census_worker(task: tuple[str, int, str]) -> PopOwnerCensus:
    """Farm worker: one scenario's pop-owner census."""
    name, seed, scale = task
    return census_scenario(name, seed=seed, scale=scale)[0]


def run_perfbench(names: typing.Sequence[str] | None = None,
                  seed: int = GOLDEN_SEED, scale: str = "full",
                  check_golden: bool = False,
                  update_golden: bool = False,
                  jobs: int = 1, repeats: int = 1,
                  owners: bool = False) -> PerfBenchReport:
    """Run ``names`` (default: every scenario) at ``scale``.

    With ``check_golden``, each result is compared against the committed
    golden digest (a missing golden entry fails the check: a new scenario
    must be golden-ed deliberately).  With ``update_golden``, the goldens
    file is rewritten with the observed digests instead.  ``jobs > 1``
    farms scenarios across processes (:mod:`repro.experiments.farm`);
    digests, metrics, and report order are identical either way.
    ``repeats`` is the best-of-N count per scenario (see
    :func:`run_scenario`).  ``owners`` runs each scenario once more,
    untimed, under a :class:`PopOwnerCensus` (:func:`census_scenario`).
    """
    if names is None:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown perfbench scenario(s): {unknown}; "
                       f"known: {sorted(SCENARIOS)}")
    results = run_farm(_scenario_worker,
                       [(name, seed, scale, repeats) for name in names],
                       jobs=jobs, labels=list(names))
    if owners:
        censuses = run_farm(_census_worker,
                            [(name, seed, scale) for name in names],
                            jobs=jobs, labels=list(names))
        for result, census in zip(results, censuses):
            result.owners = census
    if update_golden:
        goldens = load_goldens()
        for result in results:
            goldens[golden_key(result.scenario, result.scale)] = result.digest
        save_goldens(goldens)
        for result in results:
            result.golden_ok = True
    elif check_golden:
        goldens = load_goldens()
        for result in results:
            expected = goldens.get(golden_key(result.scenario, result.scale))
            result.golden_expected = expected
            # A missing golden fails the check too: a new scenario must be
            # golden-ed deliberately via --update-golden.
            result.golden_ok = expected == result.digest
    return PerfBenchReport(results=results, scale=scale, seed=seed,
                           checked=check_golden or update_golden)
