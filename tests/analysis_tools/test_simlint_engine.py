"""Tests for the simlint engine: discovery, relpaths, output, clean tree."""

import pathlib
import textwrap
import types

import repro
from repro.analysis_tools.simlint import Linter, Severity, lint_paths


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_lint_paths_discovers_nested_files(tmp_path):
    write(tmp_path, "peer/a.py", "CACHE = {}\n")
    write(tmp_path, "orderer/kafka/b.py", "import random\n")
    write(tmp_path, "clean.py", "x = 1\n")
    result = lint_paths([tmp_path])
    assert result.files_checked == 3
    assert sorted(d.rule for d in result.diagnostics) == ["SL001", "SL008"]


def test_relpaths_anchor_allowlists(tmp_path):
    # The same source is allowed at sim/rng.py but flagged elsewhere.
    write(tmp_path, "sim/rng.py", "import random\n")
    write(tmp_path, "sim/other.py", "import random\n")
    result = lint_paths([tmp_path])
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].path.endswith("other.py")


def test_syntax_error_reported_not_raised(tmp_path):
    write(tmp_path, "broken.py", "def f(:\n")
    result = lint_paths([tmp_path])
    assert len(result.diagnostics) == 1
    diag = result.diagnostics[0]
    assert diag.rule == "SL000"
    assert diag.severity is Severity.ERROR
    assert "syntax error" in diag.message


def test_render_includes_location_and_summary(tmp_path):
    write(tmp_path, "peer/a.py", "CACHE = {}\n")
    result = lint_paths([tmp_path])
    rendered = result.render()
    assert "peer/a.py:1:1: SL008 [error]" in rendered
    assert "1 finding(s) (1 error(s))" in rendered


def test_diagnostics_sorted_by_location(tmp_path):
    write(tmp_path, "peer/z.py", "A = {}\nB = []\n")
    write(tmp_path, "peer/a.py", "C = set()\n")
    result = lint_paths([tmp_path])
    paths = [d.path for d in result.diagnostics]
    assert paths == sorted(paths)
    lines = [d.line for d in result.diagnostics if d.path.endswith("z.py")]
    assert lines == sorted(lines)


def test_single_file_argument(tmp_path):
    path = write(tmp_path, "lone.py", "import random\n")
    result = lint_paths([path])
    assert result.files_checked == 1
    assert [d.rule for d in result.diagnostics] == ["SL001"]


def test_suppression_counted(tmp_path):
    write(tmp_path, "a.py", "import random  # simlint: disable=SL001\n")
    result = lint_paths([tmp_path])
    assert result.ok
    assert result.suppressed == 1
    assert "suppression comment" in result.render()


def test_custom_rule_subset():
    from repro.analysis_tools.simlint.rules import RandomUseRule

    linter = Linter(rules=[RandomUseRule()])
    diags = linter.lint_source("CACHE = {}\nimport random\n",
                               relpath="peer/a.py")
    assert [d.rule for d in diags] == ["SL001"]  # SL008 rule not loaded


def test_package_attributes_do_not_shadow_its_submodules():
    # The package's ``flow_rules`` is its submodule, not a function of
    # the same name re-exported over it.
    from repro.analysis_tools.simlint import flow_rules

    assert isinstance(flow_rules, types.ModuleType)
    assert callable(flow_rules.flow_rules)
    assert hasattr(flow_rules, "iter_functions")


def test_repository_tree_is_clean():
    """The shipped src/repro tree must lint clean — the acceptance bar."""
    package_root = pathlib.Path(repro.__file__).resolve().parent
    result = lint_paths([package_root])
    assert result.files_checked > 50
    assert result.diagnostics == [], result.render()
