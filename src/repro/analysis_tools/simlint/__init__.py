"""simlint: AST-based determinism & simulation-purity analysis.

Enforces the contract in :mod:`repro.sim.core` — "two runs with the same
seed produce identical schedules" — by statically rejecting the code
patterns that silently break it.  Run over the tree with::

    from repro.analysis_tools.simlint import lint_paths
    result = lint_paths(["src/repro"])
    print(result.render())

or from the command line with ``repro lint``.  The complementary *runtime*
check lives in :mod:`repro.sim.sanitizer` (``repro check-determinism``).
"""

from repro.analysis_tools.simlint.diagnostics import Diagnostic, Severity
from repro.analysis_tools.simlint.engine import (
    FileContext,
    Linter,
    LintResult,
    Rule,
    lint_paths,
    lint_source,
)
from repro.analysis_tools.simlint.flow_rules import project_rules
from repro.analysis_tools.simlint.profiles import (
    relaxed_rules,
    rules_for,
    strict_rules,
)
from repro.analysis_tools.simlint.project import ProjectContext, ProjectRule
from repro.analysis_tools.simlint.rules import default_rules

__all__ = [
    "Diagnostic",
    "FileContext",
    "Linter",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "default_rules",
    "lint_paths",
    "lint_source",
    "project_rules",
    "relaxed_rules",
    "rules_for",
    "strict_rules",
]
