"""The repository benchmark: host cost of simulating Fabric, by layer.

Run from the repository root::

    python3 bench/run.py --workload solo-and5-validate --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload's simulation (same seed) until
``--seconds`` of host time are used and reports the end-to-end metrics as
medians over the repeats.  ``--trace 1`` reports the per-layer metrics:
a few untraced repeats, two runs under a frame sampler, one run under the
layer shims of :mod:`bench.layers`, and the primitive timings of
:mod:`bench.primitives`.  Every simulation run is one operation; it
fails if it raises, stops before its horizon, or fails a check of
:mod:`bench.checks`.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (str(SRC), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.speed import SpeedProbe, host_speed  # noqa: E402

#: Simulation repeats per untraced run, at least (the repeat-identity
#: check needs two).
MIN_REPEATS = 2
#: In-process and fresh-interpreter set-ups measured per run.
SETUP_SAMPLES = 9
#: Unshimmed runs under the frame sampler per traced run.  One run gives
#: 650 to 2 500 samples, whose counting noise alone moves a share of 0.4
#: by 1 to 2 points.
SAMPLED_RUNS = 2
#: Seed whose runs are also checked against reference values and goldens.
GOLDEN_SEED = 1
SPAN_DIR = ROOT / "bench" / "out"

STATISTIC = ("end-to-end: medians over repeated simulations of one seed, "
             "garbage collector on; per-layer split: sampled and traced "
             "runs, collector paused; not comparable with BENCH_PR10.json, "
             "which is best-of-3 with the collector paused")


class Run:
    """One finished simulation with its checks applied."""

    def __init__(self, network, metrics, wall_s: float,
                 horizon: float) -> None:
        from bench import checks
        from repro.metrics.stats import percentile

        self.network = network
        #: Host seconds of ``run_workload()``, and the same rescaled to the
        #: nominal host speed of :mod:`bench.speed` (when probed).
        self.wall_s = wall_s
        self.reference_s = wall_s
        self.problems = (checks.check_horizon(network, horizon)
                         + checks.check_ledgers(network))
        conservation, self.census = checks.check_conservation(network)
        self.problems += conservation
        start, end = network.last_window
        committed = [record.total_latency
                     for record in network.metrics.records.values()
                     if record.committed is not None
                     and record.rejected is None
                     and start <= typing.cast(float, record.submitted) < end]
        #: Simulated results; a host-only change must leave them identical.
        self.simulated = {
            "sim.events": network.sim.events_processed,
            "sim_tps": metrics.overall_throughput,
            "sim_latency_p50_s": metrics.overall_latency_p50,
            "sim_commit_latency_p99_s": percentile(committed, 99),
            "phase.execute_latency_s": metrics.execute_latency,
            "phase.order_latency_s": metrics.order_latency,
            "phase.validate_latency_s": metrics.validate_latency,
            "phase.block_time_s": metrics.block_time,
            "valid_txs": self.census.valid,
        }


def simulate(workload, seed: int, sim_seconds: float,
             around: typing.Callable | None = None,
             probe: SpeedProbe | None = None) -> Run:
    """Build and run one network; ``around`` wraps the timed call and
    ``probe`` samples host speed during it."""
    from bench.workloads import DRAIN

    network = workload.network(seed, sim_seconds)
    horizon = network.STABILIZATION + sim_seconds + DRAIN
    gc.collect()
    with probe if probe is not None else contextlib.nullcontext():
        start = time.perf_counter_ns()
        metrics = (around(network.run_workload) if around is not None
                   else network.run_workload())
        end = time.perf_counter_ns()
    run = Run(network, metrics, (end - start) / 1e9, horizon)
    if probe is not None:
        run.reference_s = probe.normalize(start, end)
        run.wall_s -= probe.probe_seconds
    return run


class Session:
    """The operations of one benchmark invocation and their verdicts."""

    def __init__(self, workload, seed: int, sim_seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.sim_seconds = sim_seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, typing.Any] | None = None

    def run(self, label: str, around: typing.Callable | None = None,
            probe: SpeedProbe | None = None) -> Run | None:
        self.attempted += 1
        try:
            run = simulate(self.workload, self.seed, self.sim_seconds,
                           around, probe)
        except Exception as error:  # a crashed run is a failed operation
            self.fail(label, [f"raised {type(error).__name__}: {error}"])
            return None
        problems = list(run.problems)
        if self.reference is None:
            self.reference = run.simulated
        elif run.simulated != self.reference:
            problems.append(f"simulated results differ from the first run: "
                            f"{run.simulated} vs {self.reference}")
        if problems:
            self.fail(label, problems)
        return run

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {problem}" for problem in problems)


# ----------------------------------------------------------------------
# Set-up time, provenance
# ----------------------------------------------------------------------

#: Imports the simulator in a fresh interpreter under a speed probe and
#: prints the import's duration at nominal host speed.
_IMPORT_PROBE = (
    "import time\n"
    "from bench.speed import SpeedProbe\n"
    "probe = SpeedProbe()\n"
    "with probe:\n"
    "    start = time.perf_counter_ns()\n"
    "    import repro.fabric.network, repro.experiments.runner, "
    "repro.experiments.scale\n"
    "    end = time.perf_counter_ns()\n"
    "print(probe.normalize(start, end))\n")


def measure_setup(workload, seed: int, sim_seconds: float) -> float:
    """Median import time (fresh interpreters) + median network build,
    each rescaled to nominal host speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    imports = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                               cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=60, check=True)
        imports.append(float(probe.stdout.strip().splitlines()[-1]))
    builds = []
    for _ in range(SETUP_SAMPLES):
        speed = host_speed()
        start = time.perf_counter()
        workload.network(seed, sim_seconds)
        builds.append(speed * (time.perf_counter() - start))
    return statistics.median(imports) + statistics.median(builds)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(session: Session, args) -> dict[str, typing.Any]:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "workload": session.workload.name,
        "seed": session.seed,
        "config_hash": session.workload.config_hash(session.sim_seconds),
        "sim_seconds": session.sim_seconds,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision.strip() if revision else "unknown",
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "statistic": STATISTIC,
    }


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def repeat(session: Session, seconds: float, minimum: int) -> list[Run]:
    """Untraced repeats, at least ``minimum``, while the next one still
    fits in ``seconds`` of host time."""
    runs: list[Run] = []
    started = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        run = session.run(f"repeat {attempts}", probe=SpeedProbe())
        if run is not None:
            run.network = None  # keep one network alive at a time
            runs.append(run)
        elapsed = time.perf_counter() - started
        if attempts >= minimum and elapsed * (attempts + 1) / attempts > seconds:
            return runs


def end_to_end(session: Session, args, report: dict) -> dict[str, float]:
    setup_s = measure_setup(session.workload, session.seed,
                            session.sim_seconds)
    runs = repeat(session, args.seconds, MIN_REPEATS)
    if not runs:
        raise SystemExit("no simulation run completed")
    walls = [run.reference_s for run in runs]
    wall = statistics.median(walls)
    raw = [run.wall_s for run in runs]
    simulated = runs[0].simulated
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["wall_s_quartiles"] = _quartiles(walls)
    report["wall_s_samples"] = walls
    report["host_wall_s_quartiles"] = _quartiles(raw)
    report["host_wall_s_samples"] = raw
    report["census"] = vars(runs[0].census)
    report["simulated"] = simulated
    check_reference(session, runs[0])
    return {
        "wall_s": wall,
        "sim_tx_per_host_s": simulated["valid_txs"] / wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_latency_p50_s": simulated["sim_latency_p50_s"],
        "sim_commit_latency_p99_s": simulated["sim_commit_latency_p99_s"],
    }


def check_reference(session: Session, run: Run) -> None:
    """At the golden seed: reference values and the committed digest."""
    from bench.workloads import REFERENCE, REFERENCE_SECONDS

    if (session.seed != GOLDEN_SEED
            or session.sim_seconds != REFERENCE_SECONDS):
        return
    expected = REFERENCE[session.workload.name]
    observed = {name: run.simulated[name] for name in expected}
    problems = []
    if observed != expected:
        problems.append(f"reference values {observed} != {expected}")
    scenario = session.workload.golden_scenario
    if scenario is not None:
        from repro.experiments.perfbench import (
            digest_scenario,
            golden_key,
            load_goldens,
        )

        golden = load_goldens().get(golden_key(scenario, "full"))
        digest = digest_scenario(scenario, seed=GOLDEN_SEED)
        if digest != golden:
            problems.append(f"digest {digest} != golden {golden} "
                            f"({scenario})")
    if problems:
        session.attempted += 1
        session.fail("golden", problems)


def per_layer(session: Session, args, report: dict) -> dict[str, float]:
    from bench import primitives
    from bench.layers import LAYERS, FrameSampler, LayerTrace

    runs = repeat(session, args.seconds / 4, 1)
    if not runs:
        raise SystemExit("no untraced simulation run completed")
    untraced = statistics.median(run.wall_s for run in runs)

    sampler = FrameSampler()
    for index in range(SAMPLED_RUNS):
        sampled = session.run(f"sampled {index + 1}",
                              around=_collector_paused(
                                  lambda call: _within(sampler, call)))
        if sampled is None:
            raise SystemExit("a sampled run failed")
        sampled.network = None  # keep one network alive at a time
    trace = LayerTrace()
    with trace:
        traced = session.run("traced",
                             around=_collector_paused(trace.measure))
        calls = trace.call_counts()
    if traced is None:
        raise SystemExit("the traced run failed")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{session.workload.name}-{args.seed}.bin"
    trace.write_spans(str(span_file))
    report["spans"] = {"file": str(span_file.relative_to(ROOT)),
                       "count": len(trace.spans) // 4}

    network = traced.network
    metrics: dict[str, float] = {}
    self_s = trace.self_seconds()
    traced_wall = sum(self_s.values())
    sample_shares = sampler.shares()
    gap = 0.0
    for layer in LAYERS:
        share = self_s[layer] / traced_wall
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = share
        metrics[f"sample.{layer}.share"] = sample_shares[layer]
        if max(share, sample_shares[layer]) >= 0.05:
            gap = max(gap, abs(share - sample_shares[layer]))
    metrics["trace.wall_s"] = trace.wall_s
    metrics["trace.overhead_s"] = trace.wall_s - untraced
    report["trace_net_of_shims_s"] = traced_wall
    report["trace_samples"] = {"real": trace.real_samples,
                               "in_shims": trace.overhead_samples}
    metrics["trace.samples"] = sampler.samples
    metrics["trace.max_share_gap_pp"] = 100 * gap

    def count(suffix: str) -> int:
        return sum(n for name, n in calls.items() if name.endswith(suffix))

    census = traced.census
    validated = sum(peer.ledger_for(channel).valid_tx_count
                    + peer.ledger_for(channel).invalid_tx_count
                    for peer in network.peers for channel in peer.channels)
    valid = sum(peer.ledger_for(channel).valid_tx_count
                for peer in network.peers for channel in peer.channels)
    statedb = network.statedb_counters()
    lookups = statedb["cache_hits"] + statedb["cache_misses"]
    cuts = network.metrics.block_cuts
    events = traced.simulated["sim.events"]
    metrics.update({
        "sim.events": events,
        "sim.events_per_s": events / untraced,
        "sim.ns_per_event": 1e9 * untraced / events,
        "sim.events_per_tx": events / max(census.valid, 1),
        "sim.resource_requests": count(".Resource.request")
        + count(".Resource.use"),
        "sim.network_sends": count(".Network.send"),
        "peer.endorse_calls": count(".Endorser.endorse"),
        "peer.blocks_validated": sum(
            peer.validator_for(channel).blocks_validated
            for peer in network.peers for channel in peer.channels),
        "peer.gossip.blocks_relayed": count(
            ".PeerNode._handle_gossip_block"),
        "msp.verify_calls": count(".MSP.verify_signature"),
        "msp.verifies_per_tx": count(".MSP.verify_signature")
        / max(census.submitted, 1),
        "statedb.reads_per_tx": statedb["reads"] / max(validated, 1),
        "statedb.writes_per_tx": statedb["writes"] / max(validated, 1),
        "statedb.cache_hit_ratio": (statedb["cache_hits"] / lookups
                                    if lookups else 0.0),
        "ledger.commit_calls": count(".Ledger.commit_block"),
        "ledger.snapshots": count(".Ledger.take_snapshot"),
        "ledger.valid_ratio": valid / max(validated, 1),
        "orderer.blocks_cut": len(cuts),
        "orderer.tx_per_block": (sum(size for _t, size, _o, _c in cuts)
                                 / max(len(cuts), 1)),
    })
    metrics["sim.tps"] = traced.simulated["sim_tps"]
    for name in ("phase.execute_latency_s", "phase.order_latency_s",
                 "phase.validate_latency_s", "phase.block_time_s"):
        metrics[name] = traced.simulated[name]
    metrics.update(primitives.measure_all(network))
    return metrics


def _within(context, call):
    with context:
        return call()


def _collector_paused(measure: typing.Callable) -> typing.Callable:
    """``measure(call)`` with the garbage collector paused.

    A collection's time lands on whichever layer allocates when it starts,
    and the shims allocate, so the two views would split it differently
    (the sampler barely sees it: its signals coalesce during a collection).
    Paused, both views split the code's own time; the collector's time is
    in the untraced ``wall_s``.
    """
    def around(call):
        gc.disable()
        try:
            return measure(call)
        finally:
            gc.enable()

    return around


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: typing.Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(argv: typing.Sequence[str] | None = None) -> dict:
    """Run the benchmark; returns the result object (last output line)."""
    args = parse_args(argv)
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    session = Session(workload, args.seed, workloads.SIM_SECONDS)
    report: dict[str, typing.Any] = {"provenance": provenance(session,
                                                              args)}
    values = (per_layer if args.trace else end_to_end)(session, args, report)
    report["problems"] = session.problems
    print(json.dumps(report, sort_keys=True))
    unit = declared_units(args.trace)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit[name]}
                    for name in unit},
    }


def main(argv: typing.Sequence[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    result = benchmark(argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
