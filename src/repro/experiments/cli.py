"""Command-line entry point: regenerate any (or all) paper artifacts.

Usage::

    fabric-repro tab1
    fabric-repro fig2 --full
    fabric-repro all --seed 7
    repro lint
    repro check-determinism            # solo + kafka + raft double runs
    repro check-determinism --orderer raft
    repro faults --smoke               # single run of every fault scenario
    repro faults --scenario raft-leader-kill   # double run + criteria
    repro statedb                      # state-DB backend ablation (Thakkar)
    repro check-determinism --orderer solo --statedb couchdb
    repro perfbench                    # wall-clock benchmarks, all scenarios
    repro perfbench --smoke --check-golden --out BENCH_SMOKE.json  # CI gate
    repro trace --summary-out trace_summary.json  # critical path + resources
    repro obs-diff --baseline BENCH_PR10.json --candidate BENCH_NEW.json
    repro crossval --smoke --out crossval.json  # analytic model vs sim gate
    repro capacity --target-tps 300 --max-p95 2.0 --policy AND5

(``repro`` and ``fabric-repro`` are the same entry point.)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import typing

from repro.common.errors import ConfigurationError
from repro.experiments.figures import (
    run_fig2_fig3,
    run_fig4_fig5,
    run_fig6_fig7,
    run_fig8,
)
from repro.experiments.runner import TRACE_SAMPLE_INTERVAL
from repro.experiments.tables import run_table1, run_table2_table3

EXPERIMENT_IDS = ["tab1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                  "tab2", "tab3", "fig8"]


def _output_dirs_writable(args) -> bool:
    """Check every output path's directory before any work starts.

    Prints one stderr line naming the flag and returns ``False`` when a
    directory is missing or not writable, so a long run cannot end in a
    failed write.
    """
    for flag, path in (("--out", args.out), ("--trace-out", args.trace_out),
                       ("--summary-out", args.summary_out),
                       ("--write-baseline", args.write_baseline)):
        if path is None:
            continue
        directory = pathlib.Path(path).parent
        if not directory.is_dir() or not os.access(directory, os.W_OK):
            print(f"{args.experiment}: {flag} {path}: directory {directory} "
                  f"does not exist or is not writable", file=sys.stderr)
            return False
    return True


def _run_trace(args) -> int:
    """The ``trace`` subcommand: one observed run, the per-resource report
    with its Little's-law check, and critical-path attribution."""
    from repro.experiments.runner import run_traced_point
    from repro.obs.critical_path import render_summary

    point = run_traced_point(
        orderer_kind=args.orderer, policy=args.policy, rate=args.rate,
        duration=args.duration, seed=args.seed,
        sample_interval=args.sample_interval)
    report = point.report
    print(f"== trace: Bottleneck attribution ({args.orderer}, "
          f"{args.policy}, {args.rate:g} tx/s) ==")
    print(report.render(top=args.top))
    print()
    print(render_summary(point.network.critical_path_report()))
    print()
    print(f"throughput: {point.throughput:.1f} tx/s committed "
          f"(offered {args.rate:g} tx/s)")
    if args.trace_out:
        point.write_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    if args.summary_out:
        scenario = f"{args.orderer}-{args.policy}-{args.rate:g}tps"
        data = point.network.trace_summary(scenario=scenario,
                                           phase_metrics=point.metrics)
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
        print(f"trace summary written to {args.summary_out}")
    if not report.little_ok:
        names = ", ".join(s.name for s in report.violations)
        print(f"trace: Little's-law check FAILED for {names}")
        return 1
    return 0


def _run_obs_diff(args) -> int:
    """The ``obs-diff`` subcommand: perf-regression gate for CI."""
    import json

    from repro.obs.regression import diff_files, render_diff

    if not args.baseline:
        print("obs-diff: --baseline PATH is required", file=sys.stderr)
        return 2
    if not args.candidate:
        print("obs-diff: --candidate PATH is required", file=sys.stderr)
        return 2
    result = diff_files(args.baseline, args.candidate,
                        tolerance=args.tolerance,
                        wall_tolerance=args.tol_wall,
                        events_rate_tolerance=args.tol_events_rate)
    if args.diff_json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff(result, verbose=args.diff_verbose))
    return 0 if result.ok else 1


def _run_lint(args) -> int:
    """The ``lint`` subcommand: simlint over the simulator source tree.

    Without ``--path``, sweeps the installed package with the strict
    profile plus ``tests/`` and ``benchmarks/`` with the relaxed one.
    Exit status: 0 when clean — or, with ``--baseline``, when no *new*
    error-severity findings appeared beyond the accepted baseline.
    """
    from repro.analysis_tools.simlint import output as lint_output
    from repro.analysis_tools.simlint.engine import LintResult
    from repro.analysis_tools.simlint.profiles import linter_for, rules_for

    project = bool(args.lint_project)
    if args.paths:
        runs = [(args.lint_profile, list(args.paths))]
    else:
        runs = [("strict", [_default_lint_root()])]
        repo_root = pathlib.Path(_default_lint_root()).parent.parent
        for extra in ("tests", "benchmarks"):
            tree = repo_root / extra
            if tree.is_dir():
                runs.append(("relaxed", [str(tree)]))

    diagnostics = []
    files_checked = 0
    suppressed = 0
    for profile, paths in runs:
        partial = linter_for(profile, project=project).lint_paths(paths)
        diagnostics.extend(partial.diagnostics)
        files_checked += partial.files_checked
        suppressed += partial.suppressed
    diagnostics.sort(key=lambda d: (d.path, d.line, d.column, d.rule))
    result = LintResult(diagnostics=diagnostics,
                        files_checked=files_checked,
                        suppressed=suppressed)

    if args.write_baseline:
        data = lint_output.write_baseline(result, args.write_baseline)
        print(f"simlint: baseline with {len(data['fingerprints'])} "
              f"fingerprint(s) written to {args.write_baseline}")
        return 0

    baseline = (lint_output.load_baseline(args.baseline)
                if args.baseline else None)
    fresh = (lint_output.new_errors(result, baseline)
             if baseline is not None else None)

    text = result.render()
    if fresh is not None:
        text += (f"\nsimlint: {len(fresh)} new error(s) vs baseline "
                 f"{args.baseline}")
    if args.lint_format == "text":
        report = text
    else:
        if args.lint_format == "sarif":
            payload = lint_output.to_sarif(
                result, rules_for("strict", project=True))
        else:
            payload = lint_output.to_json(result)
            if fresh is not None:
                payload["new_errors"] = [
                    lint_output.diagnostic_dict(d) for d in fresh]
        report = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(report + "\n", encoding="utf-8")
        if args.lint_format != "text":
            print(text)  # the log still lists the findings
        print(f"simlint: report written to {args.out}")
    else:
        print(report)

    if fresh is not None:
        return 0 if not fresh else 1
    return 0 if result.ok else 1


def _default_lint_root() -> str:
    """The installed ``repro`` package directory (works from any cwd)."""
    return str(pathlib.Path(__file__).resolve().parent.parent)


def _run_check_determinism(args) -> int:
    """The ``check-determinism`` subcommand: same-seed double runs."""
    from repro.common.config import StateDBConfig
    from repro.experiments.determinism import (
        CHECK_DURATION,
        CHECK_RATE,
        check_point_determinism,
    )

    kinds = (["solo", "kafka", "raft"] if args.orderer is None
             else [args.orderer])
    rate = args.check_rate if args.check_rate is not None else CHECK_RATE
    duration = (args.check_duration if args.check_duration is not None
                else CHECK_DURATION)
    statedb = None
    workload_kind = "unique"
    if args.statedb == "couchdb":
        # Exercise every statedb feature at once: the CouchDB cost model,
        # the read cache, bulk batching, and periodic snapshots, on the
        # read-write workload that keeps the read path hot.
        statedb = StateDBConfig(kind="couchdb", cache=True, bulk=True,
                                snapshot_interval=3)
        workload_kind = "conflict"
    elif args.statedb == "leveldb":
        statedb = StateDBConfig(kind="leveldb")
    failures = 0
    for kind in kinds:
        check = check_point_determinism(
            kind, rate=rate, duration=duration, seed=args.seed,
            keep_records=not args.digest_only, statedb=statedb,
            workload_kind=workload_kind)
        print(check.render())
        print()
        if not check.ok:
            failures += 1
    if failures:
        print(f"check-determinism: {failures}/{len(kinds)} "
              f"configuration(s) NON-DETERMINISTIC")
        return 1
    print(f"check-determinism: all {len(kinds)} configuration(s) "
          f"reproducible (byte-identical schedules and metrics)")
    return 0


def _run_faults(args) -> int:
    """The ``faults`` subcommand: fault scenarios + recovery criteria.

    Default (and ``--scenario``): same-seed double run per scenario, so a
    failure is either a broken recovery criterion or non-determinism.
    ``--smoke`` runs each scenario once (faster; CI gate).
    """
    from repro.experiments.faults import (
        SCENARIOS,
        check_scenario_determinism,
        run_fault_scenario,
    )

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    failures = 0
    for name in names:
        if args.smoke:
            result = run_fault_scenario(name, seed=args.seed)
            print(result.render())
            print()
            if not result.ok:
                failures += 1
            continue
        check = check_scenario_determinism(
            name, seed=args.seed, keep_records=not args.digest_only)
        print(check.result.render())
        print(check.render())
        print()
        if not (check.ok and check.result.ok):
            failures += 1
    if failures:
        print(f"faults: {failures}/{len(names)} scenario(s) FAILED")
        return 1
    print(f"faults: all {len(names)} scenario(s) passed")
    return 0


def _run_statedb(args) -> int:
    """The ``statedb`` subcommand: backend ablation + attribution check.

    Exits non-zero when the Thakkar ordering (LevelDB > CouchDB+cache+bulk
    > plain CouchDB) or the CouchDB bottleneck attribution does not hold.
    """
    from repro.experiments.statedb import run_statedb_ablation

    mode = "full" if args.full else "quick"
    ablation = run_statedb_ablation(mode=mode, seed=args.seed)
    print(ablation.result.render())
    return 0 if ablation.ok else 1


def _run_scale(args) -> int:
    """The ``scale`` subcommand: peers x channels x population sweeps.

    With explicit ``--peers``/``--channels``/``--users``, runs a single
    point (and prints its per-cohort breakdown); otherwise runs the full
    or ``--smoke`` sweep grid.  Exits non-zero when a point commits
    nothing, builds more clients than cohorts, or loses a cohort's
    metrics — the O(cohorts) contract the subsystem guarantees.
    """
    import json

    from repro.experiments.farm import FarmError
    from repro.experiments.scale import (
        ScaleSweep,
        run_scale_point,
        run_scale_sweep,
    )

    single = (args.peers is not None or args.channels is not None
              or args.users is not None)
    if single:
        point = run_scale_point(
            peers=args.peers if args.peers is not None else 100,
            channels=args.channels if args.channels is not None else 4,
            users=args.users if args.users is not None else 1_000_000,
            rate=args.scale_rate,
            duration=args.scale_duration,
            cohorts_per_channel=args.cohorts,
            seed=args.seed)
        sweep = ScaleSweep(points=[point], mode="point", seed=args.seed)
        print(sweep.render())
        print()
        print(f"{'cohort':<10} {'channel':<8} {'tps':>7}  {'lat_s':>6}")
        for name in sorted(point.per_cohort):
            metrics = point.per_cohort[name]
            channel = point.cohort_channels.get(name, "")
            print(f"{name:<10} {channel:<8} "
                  f"{metrics.overall_throughput:>7.1f}  "
                  f"{metrics.overall_latency:>6.3f}")
    else:
        try:
            sweep = run_scale_sweep(
                mode="smoke" if args.smoke else "full", seed=args.seed,
                jobs=args.jobs)
        except FarmError as error:
            print(f"scale: point {error.label!r} failed in a worker:\n"
                  f"{error.detail}", file=sys.stderr)
            return 1
        print(sweep.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(sweep.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"scale sweep written to {args.out}")
    return 0 if sweep.ok else 1


def _run_perfbench(args) -> int:
    """The ``perfbench`` subcommand: wall-clock runs + golden digests."""
    from repro.experiments.farm import FarmError
    from repro.experiments.perfbench import SMOKE_SCENARIOS, run_perfbench

    names = args.scenarios
    scale = "smoke" if args.smoke else "full"
    if names is None and args.smoke:
        names = SMOKE_SCENARIOS
    try:
        report = run_perfbench(
            names, seed=args.seed, scale=scale,
            check_golden=args.check_golden, update_golden=args.update_golden,
            jobs=args.jobs, repeats=args.repeats, owners=args.owners)
    except FarmError as error:
        print(f"perfbench: scenario {error.label!r} failed in a worker:\n"
              f"{error.detail}", file=sys.stderr)
        return 1
    print(report.render())
    if args.out:
        report.write_bench_file(args.out)
        print(f"benchmark trajectory written to {args.out}")
    if not report.ok:
        print("perfbench: golden digest check FAILED (the simulated "
              "schedule changed; if deliberate, regenerate with "
              "--update-golden)")
        return 1
    return 0


def _run_crossval(args) -> int:
    """The ``crossval`` subcommand: analytic phase model vs the simulator.

    Exits non-zero when any gated metric (throughput, latency p50/p95)
    lands beyond its declared tolerance; per-phase means are reported but
    never gated.  ``--out`` writes the report JSON (the CI artifact).
    """
    from repro.experiments.crossval import run_crossval
    from repro.experiments.farm import FarmError
    from repro.experiments.perfbench import SMOKE_SCENARIOS

    names = args.scenarios
    scale = "smoke" if args.smoke else "full"
    if names is None and args.smoke:
        names = SMOKE_SCENARIOS
    try:
        report = run_crossval(names, seed=args.seed, scale=scale,
                              jobs=args.jobs)
    except FarmError as error:
        print(f"crossval: scenario {error.label!r} failed in a worker:\n"
              f"{error.detail}", file=sys.stderr)
        return 1
    print(report.render())
    if args.out:
        report.write_json(args.out)
        print(f"crossval report written to {args.out}")
    return 0 if report.ok else 1


def _run_capacity(args) -> int:
    """The ``capacity`` subcommand: invert the phase model into a plan.

    Closed-form grid search — no simulation runs; a full plan answers in
    milliseconds.  Exits non-zero when no configuration in the grid
    sustains the target (so scripts can branch on feasibility).
    """
    from repro.analysis.planner import plan_capacity

    if args.target_tps is None:
        print("capacity: --target-tps RATE is required", file=sys.stderr)
        return 2
    plan = plan_capacity(
        target_tps=args.target_tps,
        max_p95=args.max_p95,
        policy=args.policy,
        orderer_kind=args.orderer if args.orderer is not None else "solo",
        statedb_kind=args.statedb if args.statedb is not None else "leveldb",
        workload_kind=args.plan_workload)
    if args.plan_json:
        print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
    else:
        print(plan.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(plan.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"capacity plan written to {args.out}")
    return 0 if plan.feasible else 1


def _results_for(experiment_id: str, mode: str, seed: int):
    if experiment_id == "tab1":
        return [run_table1()]
    if experiment_id in ("fig2", "fig3"):
        fig2, fig3 = run_fig2_fig3(mode=mode, seed=seed)
        return [fig2 if experiment_id == "fig2" else fig3]
    if experiment_id in ("fig4", "fig5"):
        fig4, fig5 = run_fig4_fig5(mode=mode, seed=seed)
        return [fig4 if experiment_id == "fig4" else fig5]
    if experiment_id in ("fig6", "fig7"):
        fig6, fig7 = run_fig6_fig7(mode=mode, seed=seed)
        return [fig6 if experiment_id == "fig6" else fig7]
    if experiment_id in ("tab2", "tab3"):
        tab2, tab3 = run_table2_table3(mode=mode, seed=seed)
        return [tab2 if experiment_id == "tab2" else tab3]
    if experiment_id == "fig8":
        return [run_fig8(mode=mode, seed=seed)]
    raise ValueError(f"unknown experiment {experiment_id!r}")


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fabric-repro",
        description="Regenerate the tables and figures of Wang & Chu, "
                    "'Performance Characterization and Bottleneck Analysis "
                    "of Hyperledger Fabric' (ICDCS 2020).")
    parser.add_argument("experiment",
                        choices=(EXPERIMENT_IDS
                                 + ["all", "trace", "lint",
                                    "check-determinism", "faults",
                                    "statedb", "perfbench", "obs-diff",
                                    "scale", "crossval", "capacity"]),
                        help="which artifact to regenerate; 'trace' for an "
                             "observed run with the per-resource "
                             "bottleneck report (Little's-law checked) "
                             "and critical-path extraction; 'obs-diff' "
                             "for the perf-"
                             "regression gate between two bench files; "
                             "'lint' for the simlint determinism analyzer; "
                             "'check-determinism' for same-seed double-run "
                             "schedule diffing; 'faults' for the "
                             "fault-injection recovery scenarios; 'statedb' "
                             "for the state-database backend ablation; "
                             "'perfbench' for wall-clock benchmarks of the "
                             "simulator itself with golden-digest checks; "
                             "'scale' for peers x channels x population "
                             "sweeps with aggregated client cohorts; "
                             "'crossval' for the analytic-model-vs-"
                             "simulator accuracy gate; 'capacity' for the "
                             "closed-form capacity planner")
    parser.add_argument("--full", action="store_true",
                        help="run the paper-scale sweep (slower)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default 1)")
    parser.add_argument("--plot", action="store_true",
                        help="render figure-shaped ASCII charts as well")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the perfbench / "
                             "crossval / scale matrices (default 1: run "
                             "inline; results and report order are "
                             "identical at any width)")
    trace_group = parser.add_argument_group(
        "trace options", "only used with the 'trace' experiment")
    trace_group.add_argument("--orderer", default=None,
                             choices=["solo", "kafka", "raft"],
                             help="ordering service kind (default solo for "
                                  "trace; all three for check-determinism)")
    trace_group.add_argument("--policy", default="AND5",
                             help="endorsement policy (default AND5)")
    trace_group.add_argument("--rate", type=float, default=250.0,
                             help="offered load in tx/s (default 250, past "
                                  "the AND5 validate capacity)")
    trace_group.add_argument("--duration", type=float, default=15.0,
                             help="workload duration in simulated seconds")
    trace_group.add_argument("--sample-interval", type=float,
                             default=TRACE_SAMPLE_INTERVAL,
                             help="monitor checkpoint interval (seconds)")
    trace_group.add_argument("--top", type=int, default=12,
                             help="resources to list in the report")
    trace_group.add_argument("--trace-out", default=None, metavar="PATH",
                             help="write a Chrome trace_event JSON file "
                                  "(view in Perfetto / chrome://tracing)")
    trace_group.add_argument("--summary-out", default=None, metavar="PATH",
                             help="write the critical-path + resource "
                                  "report summary JSON (obs-diff "
                                  "comparable)")
    lint_group = parser.add_argument_group(
        "lint options",
        "only used with the 'lint' experiment; --out writes the report "
        "to a file and --baseline names an accepted-findings file "
        "(shared flags)")
    lint_group.add_argument("--path", dest="paths", action="append",
                            default=None, metavar="DIR",
                            help="file or directory to lint (repeatable; "
                                 "default: the installed repro package "
                                 "plus tests/ and benchmarks/ with the "
                                 "relaxed profile)")
    lint_group.add_argument("--project", dest="lint_project",
                            action="store_true",
                            help="also run the cross-file rules (SL012/"
                                 "SL014/SL015) over the project symbol "
                                 "table and call graph")
    lint_group.add_argument("--profile", dest="lint_profile",
                            default="strict",
                            choices=["strict", "relaxed"],
                            help="rule profile for explicitly given "
                                 "--path targets (default strict; the "
                                 "default sweep picks per-tree profiles "
                                 "itself)")
    lint_group.add_argument("--format", dest="lint_format",
                            default="text",
                            choices=["text", "json", "sarif"],
                            help="report format (default text; sarif is "
                                 "SARIF 2.1.0 for code-scanning upload); "
                                 "with --out, a json/sarif report goes to "
                                 "the file and the text report to stdout")
    lint_group.add_argument("--write-baseline", dest="write_baseline",
                            default=None, metavar="PATH",
                            help="accept the current findings: write "
                                 "their fingerprints to PATH and exit 0")
    check_group = parser.add_argument_group(
        "check-determinism options",
        "only used with the 'check-determinism' experiment; --orderer, "
        "--seed also apply")
    check_group.add_argument("--check-rate", type=float, default=None,
                             help="offered load for the double runs "
                                  "(default 60 tx/s)")
    check_group.add_argument("--check-duration", type=float, default=None,
                             help="workload duration for the double runs "
                                  "(default 4 simulated seconds)")
    check_group.add_argument("--digest-only", action="store_true",
                             help="skip per-event record keeping (lower "
                                  "memory; no first-divergence report)")
    check_group.add_argument("--statedb", default=None,
                             choices=["leveldb", "couchdb"],
                             help="state-database backend for the double "
                                  "runs (couchdb enables cache, bulk "
                                  "batching, and snapshots on the "
                                  "read-write workload)")
    faults_group = parser.add_argument_group(
        "faults options",
        "only used with the 'faults' experiment; --seed also applies")
    faults_group.add_argument("--scenario", default=None,
                              choices=["raft-leader-kill",
                                       "kafka-broker-kill",
                                       "peer-wipe-recover"],
                              help="run one scenario (default: all)")
    faults_group.add_argument("--smoke", action="store_true",
                              help="single run per scenario instead of the "
                                   "same-seed determinism double run; for "
                                   "perfbench: the scaled-down CI subset")
    perf_group = parser.add_argument_group(
        "perfbench options",
        "only used with the 'perfbench' experiment; --seed and --smoke "
        "also apply")
    perf_group.add_argument("--perf-scenario", dest="scenarios",
                            action="append", default=None, metavar="NAME",
                            help="benchmark one scenario (repeatable; "
                                 "default: all, or the smoke subset with "
                                 "--smoke)")
    perf_group.add_argument("--out", default=None, metavar="PATH",
                            help="write the {scenario: {wall_s, sim_tps, "
                                 "events_per_s}} benchmark JSON to PATH")
    perf_group.add_argument("--check-golden", action="store_true",
                            help="fail if any run's trace digest diverges "
                                 "from the committed golden value")
    perf_group.add_argument("--update-golden", action="store_true",
                            help="deliberately regenerate the committed "
                                 "golden digests from this run")
    perf_group.add_argument("--repeats", type=int, default=1, metavar="N",
                            help="time each scenario N times and keep the "
                                 "fastest wall clock (best-of-N; default 1). "
                                 "The schedule and digest are identical "
                                 "across repeats — only host noise varies")
    perf_group.add_argument("--owners", action="store_true",
                            help="run each scenario once more, untimed, "
                                 "and print its share of pops, share of "
                                 "host time and us per pop by (event type, "
                                 "owner process)")
    scale_group = parser.add_argument_group(
        "scale options",
        "only used with the 'scale' experiment; --seed, --smoke, and "
        "--out also apply.  Giving any of --peers/--channels/--users "
        "runs one point (defaults 100 peers, 4 channels, 1,000,000 "
        "users) instead of the sweep grid")
    scale_group.add_argument("--peers", type=int, default=None,
                             help="total peers (committing-only beyond "
                                  "the 10-peer endorsing core)")
    scale_group.add_argument("--channels", type=int, default=None,
                             help="number of channels (ch1..chN; every "
                                  "peer joins all of them)")
    scale_group.add_argument("--users", type=int, default=None,
                             help="aggregated population size; load is "
                                  "superposed-Poisson, so kernel cost is "
                                  "O(cohorts) regardless of this value")
    scale_group.add_argument("--cohorts", type=int, default=2,
                             help="cohorts per channel (default 2); each "
                                  "cohort is one kernel process and one "
                                  "client node")
    scale_group.add_argument("--scale-rate", type=float, default=150.0,
                             help="aggregate offered load in tx/s across "
                                  "all channels (default 150)")
    scale_group.add_argument("--scale-duration", type=float, default=8.0,
                             help="workload duration in simulated seconds "
                                  "(default 8)")
    capacity_group = parser.add_argument_group(
        "capacity options",
        "only used with the 'capacity' experiment; --policy, --orderer, "
        "--statedb, and --out also apply (crossval reuses --smoke, "
        "--seed, --perf-scenario, and --out)")
    capacity_group.add_argument("--target-tps", type=float, default=None,
                                help="throughput the deployment must "
                                     "sustain (tx/s)")
    capacity_group.add_argument("--max-p95", type=float, default=None,
                                help="end-to-end p95 latency bound in "
                                     "seconds (default: unbounded)")
    capacity_group.add_argument("--plan-workload", default="unique",
                                choices=["unique", "conflict"],
                                help="transaction shape to plan for "
                                     "(default unique)")
    capacity_group.add_argument("--plan-json", action="store_true",
                                help="print the plan as JSON instead of "
                                     "the text summary")
    diff_group = parser.add_argument_group(
        "obs-diff options", "only used with the 'obs-diff' experiment")
    diff_group.add_argument("--baseline", default=None, metavar="PATH",
                            help="baseline BENCH_*.json or trace-summary "
                                 "file (the accepted reference)")
    diff_group.add_argument("--candidate", default=None, metavar="PATH",
                            help="candidate measurement file to gate")
    diff_group.add_argument("--tolerance", type=float, default=0.05,
                            help="relative tolerance for deterministic "
                                 "metrics (default 0.05)")
    diff_group.add_argument("--tol-wall", type=float, default=None,
                            metavar="FRAC",
                            help="also gate wall-clock time at this "
                                 "relative tolerance (default: report "
                                 "only; wall time is machine-dependent)")
    diff_group.add_argument("--tol-events-rate", type=float, default=None,
                            metavar="FRAC",
                            help="also gate the kernel event rate "
                                 "(events_per_s) at this relative "
                                 "tolerance (default: report only; the "
                                 "rate is machine-dependent, gate it "
                                 "only against a same-host baseline)")
    diff_group.add_argument("--diff-json", action="store_true",
                            help="emit the full diff as JSON")
    diff_group.add_argument("--diff-verbose", action="store_true",
                            help="list every compared metric, not just "
                                 "regressions")
    args = parser.parse_args(argv)
    if not _output_dirs_writable(args):
        return 2
    try:
        return _dispatch(args)
    except ConfigurationError as error:
        # The one error boundary: a bad flag or config value ends in one
        # line naming it, not a traceback.
        print(f"fabric-repro: {error}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.experiment == "lint":
        return _run_lint(args)
    if args.experiment == "check-determinism":
        return _run_check_determinism(args)
    if args.experiment == "faults":
        return _run_faults(args)
    if args.experiment == "statedb":
        return _run_statedb(args)
    if args.experiment == "perfbench":
        return _run_perfbench(args)
    if args.experiment == "obs-diff":
        return _run_obs_diff(args)
    if args.experiment == "scale":
        return _run_scale(args)
    if args.experiment == "crossval":
        return _run_crossval(args)
    if args.experiment == "capacity":
        return _run_capacity(args)
    if args.experiment == "trace":
        if args.orderer is None:
            args.orderer = "solo"
        return _run_trace(args)
    mode = "full" if args.full else "quick"
    if args.experiment == "all":
        # Run paired experiments once each.
        results = [run_table1()]
        results.extend(run_fig2_fig3(mode=mode, seed=args.seed))
        results.extend(run_fig4_fig5(mode=mode, seed=args.seed))
        results.extend(run_fig6_fig7(mode=mode, seed=args.seed))
        results.extend(run_table2_table3(mode=mode, seed=args.seed))
        results.append(run_fig8(mode=mode, seed=args.seed))
    else:
        results = _results_for(args.experiment, mode, args.seed)
    for result in results:
        print(result.render())
        print()
        if args.plot:
            from repro.experiments.plots import plot_if_supported

            chart = plot_if_supported(result)
            if chart is not None:
                print(chart)
                print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
