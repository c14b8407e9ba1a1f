"""Tests for the fabric-repro CLI."""

import pytest

from repro.experiments.cli import EXPERIMENT_IDS, main


def test_tab1_prints_table(capsys):
    assert main(["tab1"]) == 0
    output = capsys.readouterr().out
    assert "tab1" in output
    assert "BatchSize" in output


def test_unknown_experiment_exits_with_error():
    with pytest.raises(SystemExit):
        main(["figX"])


def test_experiment_id_list_is_complete():
    assert set(EXPERIMENT_IDS) == {
        "tab1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "tab2", "tab3", "fig8"}


def test_help_mentions_paper():
    with pytest.raises(SystemExit):
        main(["--help"])


def test_seed_flag_parsed(capsys):
    assert main(["tab1", "--seed", "9"]) == 0


def test_trace_subcommand_prints_report_and_writes_trace(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    assert main(["trace", "--rate", "40", "--duration", "3",
                 "--trace-out", str(trace_path)]) == 0
    output = capsys.readouterr().out
    assert "Bottleneck attribution" in output
    assert "throughput:" in output
    assert "resource" in output
    payload = json.loads(trace_path.read_text())
    assert any(event["ph"] == "X" for event in payload["traceEvents"])
    # The periodic slices feed the busy-server counter tracks.
    assert any(event["ph"] == "C" for event in payload["traceEvents"])


def test_trace_rejects_unknown_orderer():
    with pytest.raises(SystemExit):
        main(["trace", "--orderer", "pbft"])


@pytest.mark.parametrize("flag", ["--trace-out", "--summary-out"])
def test_trace_checks_output_paths_before_running(tmp_path, capsys, flag):
    missing = tmp_path / "missing" / "out.json"
    assert main(["trace", flag, str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""          # refused before simulating
    (line,) = captured.err.splitlines()
    assert line.startswith(f"trace: {flag} {missing}:")


@pytest.mark.parametrize("command", [
    ["perfbench", "--smoke"],
    ["crossval", "--smoke"],
    ["scale", "--smoke"],
    ["capacity", "--target-tps", "200"],
    ["lint"],
], ids=lambda command: command[0])
def test_out_checked_before_any_work(tmp_path, capsys, command):
    missing = tmp_path / "missing" / "out.json"
    assert main([*command, "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""          # refused before simulating
    (line,) = captured.err.splitlines()
    assert line.startswith(f"{command[0]}: --out {missing}:")


def test_lint_write_baseline_checked_before_the_sweep(tmp_path, capsys):
    missing = tmp_path / "missing" / "baseline.json"
    assert main(["lint", "--project", "--write-baseline",
                 str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""          # refused before sweeping
    (line,) = captured.err.splitlines()
    assert line.startswith(f"lint: --write-baseline {missing}:")


@pytest.mark.parametrize("flag, value", [
    ("--rate", "nan"), ("--rate", "inf"),
    ("--duration", "nan"), ("--duration", "inf"),
    ("--sample-interval", "0"), ("--sample-interval", "nan"),
    ("--sample-interval", "inf"),
])
def test_non_finite_trace_flags_exit_2_with_one_line(flag, value):
    # A subprocess with a timeout: a value that slips through would
    # otherwise hang the run instead of failing this test.
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "trace", flag,
         value],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("fabric-repro: ")
    assert value in line


def test_lint_subcommand_clean_on_shipped_tree(capsys):
    assert main(["lint"]) == 0
    output = capsys.readouterr().out
    assert "0 finding(s)" in output


def test_lint_machine_report_to_a_file_still_prints_the_findings(
        tmp_path, capsys):
    import json

    bad = tmp_path / "peer"
    bad.mkdir()
    (bad / "bad.py").write_text("import random\n", encoding="utf-8")
    report = tmp_path / "report.sarif"
    assert main(["lint", "--path", str(tmp_path), "--format", "sarif",
                 "--out", str(report)]) == 1
    output = capsys.readouterr().out
    assert "SL001" in output and "1 finding(s)" in output
    (result,) = json.loads(report.read_text())["runs"][0]["results"]
    assert result["ruleId"] == "SL001"


def test_lint_subcommand_flags_bad_path(tmp_path, capsys):
    bad = tmp_path / "peer"
    bad.mkdir()
    (bad / "bad.py").write_text("import random\n", encoding="utf-8")
    assert main(["lint", "--path", str(tmp_path)]) == 1
    output = capsys.readouterr().out
    assert "SL001" in output


def test_check_determinism_subcommand_single_orderer(capsys):
    assert main(["check-determinism", "--orderer", "solo",
                 "--check-duration", "1.5", "--check-rate", "30",
                 "--digest-only"]) == 0
    output = capsys.readouterr().out
    assert "DETERMINISTIC" in output
    assert "reproducible" in output


def test_trace_summary_out_writes_obs_diff_comparable_json(tmp_path, capsys):
    import json

    summary_path = tmp_path / "summary.json"
    assert main(["trace", "--rate", "40", "--duration", "3",
                 "--summary-out", str(summary_path)]) == 0
    output = capsys.readouterr().out
    assert "critical path over" in output
    assert "dominant phase:" in output
    assert "Little's-law" in output
    payload = json.loads(summary_path.read_text())
    assert payload["scenario"] == "solo-AND5-40tps"
    assert payload["throughput_tps"] > 0
    assert payload["critical_path"]["transactions"] > 0
    assert payload["critical_path"]["dominant_phase"]
    assert payload["queueing"]["little_ok"] is True


def test_obs_diff_passes_against_identical_baseline(tmp_path, capsys):
    import json

    bench = {"solo": {"sim_tps": 100.0, "events": 1000, "scale": "smoke"}}
    base = tmp_path / "base.json"
    base.write_text(json.dumps(bench), encoding="utf-8")
    assert main(["obs-diff", "--baseline", str(base),
                 "--candidate", str(base)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_obs_diff_fails_on_degraded_candidate(tmp_path, capsys):
    import json

    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(
        {"solo": {"sim_tps": 100.0, "events": 1000}}), encoding="utf-8")
    cand.write_text(json.dumps(
        {"solo": {"sim_tps": 50.0, "events": 1000}}), encoding="utf-8")
    assert main(["obs-diff", "--baseline", str(base),
                 "--candidate", str(cand)]) == 1
    assert "obs-diff: FAILED" in capsys.readouterr().out


def test_obs_diff_json_output(tmp_path, capsys):
    import json

    base = tmp_path / "base.json"
    base.write_text(json.dumps(
        {"solo": {"sim_tps": 100.0}}), encoding="utf-8")
    assert main(["obs-diff", "--baseline", str(base),
                 "--candidate", str(base), "--diff-json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_obs_diff_requires_both_paths(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text("{}", encoding="utf-8")
    assert main(["obs-diff"]) == 2
    assert main(["obs-diff", "--baseline", str(base)]) == 2


def test_obs_diff_events_rate_gate_behind_flag(tmp_path, capsys):
    # events_per_s is machine-dependent: ungated by default, gated when
    # --tol-events-rate supplies a tolerance (same opt-in as --tol-wall).
    import json

    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(
        {"solo": {"sim_tps": 100.0, "events_per_s": 100_000.0}}),
        encoding="utf-8")
    cand.write_text(json.dumps(
        {"solo": {"sim_tps": 100.0, "events_per_s": 50_000.0}}),
        encoding="utf-8")
    assert main(["obs-diff", "--baseline", str(base),
                 "--candidate", str(cand)]) == 0
    capsys.readouterr()
    assert main(["obs-diff", "--baseline", str(base),
                 "--candidate", str(cand),
                 "--tol-events-rate", "0.25"]) == 1
    out = capsys.readouterr().out
    assert "obs-diff: FAILED" in out
    assert "events_per_s" in out
