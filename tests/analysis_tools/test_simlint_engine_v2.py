"""Engine v2 tests: statement-span suppressions, profiles, project mode,
machine-readable output, and the CI baseline mechanism."""

import ast
import json
import textwrap
import typing

import pytest

from repro.analysis_tools.simlint.diagnostics import Severity
from repro.analysis_tools.simlint.engine import FileContext, Linter, Rule
from repro.analysis_tools.simlint.output import (
    baseline_fingerprints,
    fingerprint,
    load_baseline,
    new_errors,
    to_json,
    to_sarif,
    write_baseline,
)
from repro.analysis_tools.simlint.profiles import (
    RELAXED_EXCLUDED,
    linter_for,
    relaxed_rules,
    rules_for,
    strict_rules,
)


class FlagEveryFunction(Rule):
    """Test rule: one warning per function definition."""

    rule_id = "SL999"
    severity = Severity.WARNING
    description = "test rule"

    def check(self, context: FileContext) -> typing.Iterator[typing.Any]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.FunctionDef):
                yield context.diagnostic(self, node, f"function {node.name}")


class FlagEveryCallStatement(Rule):
    rule_id = "SL998"
    severity = Severity.ERROR
    description = "test rule"

    def check(self, context: FileContext) -> typing.Iterator[typing.Any]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                yield context.diagnostic(self, node, "call statement")


# ----------------------------------------------------------------------
# Statement-span suppressions
# ----------------------------------------------------------------------

def lint_with(rule, source):
    return Linter(rules=[rule]).lint_source(textwrap.dedent(source))


def test_suppression_on_decorator_line_covers_the_def():
    # The diagnostic is reported at the `def` line, two lines below the
    # comment; the statement span (decorators included) still covers it.
    assert lint_with(FlagEveryFunction(), """
        @fixture  # simlint: disable=SL999
        @parametrize("x", [1, 2])
        def seeded(x):
            pass
    """) == []


def test_suppression_on_continuation_line_covers_the_statement():
    assert lint_with(FlagEveryCallStatement(), """
        configure(
            alpha=1,
            beta=2,  # simlint: disable=SL998
        )
    """) == []


def test_suppression_span_is_limited_to_compound_headers():
    # A comment on an `if` header must not blanket the whole body.
    diags = lint_with(FlagEveryCallStatement(), """
        if enabled(  # simlint: disable=SL998
                flag):
            launch()
    """)
    assert [d.message for d in diags] == ["call statement"]


def test_unsuppressed_statement_still_fires():
    diags = lint_with(FlagEveryCallStatement(), """
        configure(alpha=1)
    """)
    assert [d.rule for d in diags] == ["SL998"]


def test_suppression_is_rule_specific():
    diags = lint_with(FlagEveryCallStatement(), """
        configure(
            alpha=1,  # simlint: disable=SL999
        )
    """)
    assert [d.rule for d in diags] == ["SL998"]


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------

def test_strict_profile_spans_sl001_to_sl016_in_project_mode():
    ids = [rule.rule_id for rule in strict_rules(project=True)]
    assert ids == sorted(ids)
    for wanted in ("SL001", "SL011", "SL012", "SL013", "SL014", "SL015",
                   "SL016"):
        assert wanted in ids


def test_relaxed_profile_drops_only_the_documented_rules():
    strict_ids = {rule.rule_id for rule in strict_rules(project=True)}
    relaxed_ids = {rule.rule_id for rule in relaxed_rules(project=True)}
    assert strict_ids - relaxed_ids == set(RELAXED_EXCLUDED)


def test_rules_for_rejects_unknown_profile():
    with pytest.raises(ValueError):
        rules_for("lenient")


# ----------------------------------------------------------------------
# Project mode through lint_paths
# ----------------------------------------------------------------------

def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def test_lint_paths_project_mode_runs_cross_file_rules(tmp_path):
    root = write_tree(tmp_path, {
        "peer/gen.py": """
            def drain():
                yield 1
        """,
        "peer/user.py": """
            from repro.peer.gen import drain

            def run():
                drain()
                yield 1
        """,
    })
    with_project = linter_for("strict", project=True).lint_paths(
        [root], root=root)
    assert "SL012" in {d.rule for d in with_project.diagnostics}
    without = linter_for("strict").lint_paths([root], root=root)
    assert "SL012" not in {d.rule for d in without.diagnostics}


def test_project_rule_findings_respect_suppressions(tmp_path):
    root = write_tree(tmp_path, {
        "peer/user.py": """
            def drain():
                yield 1

            def run():
                drain()  # simlint: disable=SL012
                yield 1
        """,
    })
    result = linter_for("strict", project=True).lint_paths(
        [root], root=root)
    assert "SL012" not in {d.rule for d in result.diagnostics}
    assert result.suppressed >= 1


def test_lint_output_ordering_is_deterministic(tmp_path):
    # Two files, several findings each: repeated runs must produce the
    # identical diagnostic sequence (sorted by path/line/column/rule).
    root = write_tree(tmp_path, {
        "b/late.py": """
            def drain():
                yield 1

            def run():
                drain()
                drain()
                yield 1
        """,
        "a/early.py": """
            def run(pool, tracer):
                slot = pool.request()
                yield slot
                span = tracer.span("x")
                yield from pool.use(1.0)
        """,
    })
    runs = [linter_for("strict", project=True).lint_paths(
                [root], root=root) for _ in range(3)]
    keys = [[(d.path, d.line, d.column, d.rule, d.message)
             for d in run.diagnostics] for run in runs]
    assert keys[0] == keys[1] == keys[2]
    assert keys[0] == sorted(keys[0])
    assert keys[0], "fixture should produce findings"


# ----------------------------------------------------------------------
# JSON / SARIF / baseline
# ----------------------------------------------------------------------

def result_for(tmp_path):
    root = write_tree(tmp_path, {
        "peer/leaky.py": """
            def drain():
                yield 1

            def run(pool):
                drain()
                slot = pool.request()
                yield slot
        """,
    })
    return linter_for("strict", project=True).lint_paths(
        [root], root=root)


def test_to_json_shape(tmp_path):
    result = result_for(tmp_path)
    payload = to_json(result)
    assert payload["summary"]["findings"] == len(result.diagnostics)
    assert payload["summary"]["files_checked"] == 1
    first = payload["diagnostics"][0]
    assert set(first) == {"rule", "severity", "path", "line", "column",
                          "message"}
    json.dumps(payload)  # must be serialisable as-is


def test_to_sarif_shape(tmp_path):
    result = result_for(tmp_path)
    rules = rules_for("strict", project=True)
    sarif = to_sarif(result, rules)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    listed = [meta["id"] for meta in run["tool"]["driver"]["rules"]]
    assert listed == sorted(listed)
    assert len(run["results"]) == len(result.diagnostics)
    first = run["results"][0]
    assert first["locations"][0]["physicalLocation"]["region"]["startLine"]
    assert first["fingerprints"]["simlint/v1"]
    json.dumps(sarif)


def test_fingerprint_ignores_line_numbers_but_counts_occurrences(tmp_path):
    result = result_for(tmp_path)
    diag = result.diagnostics[0]
    moved = type(diag)(rule=diag.rule, severity=diag.severity,
                       path=diag.path, line=diag.line + 40,
                       column=diag.column, message=diag.message)
    assert fingerprint(diag) == fingerprint(moved)
    assert fingerprint(diag, occurrence=1) != fingerprint(diag, occurrence=0)


def test_baseline_round_trip_gates_only_new_errors(tmp_path):
    result = result_for(tmp_path)
    assert result.errors, "fixture should seed at least one error"
    baseline_path = tmp_path / "baseline.json"
    write_baseline(result, baseline_path)
    accepted = load_baseline(baseline_path)
    assert set(baseline_fingerprints(result)) <= accepted
    # Every current error is accounted for ...
    assert new_errors(result, accepted) == []
    # ... and an empty baseline reports exactly the error findings.
    assert len(new_errors(result, frozenset())) == len(result.errors)


def test_load_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "fingerprints": []}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)
