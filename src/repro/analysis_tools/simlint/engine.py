"""The simlint rule engine: parse files, run rules, filter suppressions.

Rules are small classes with a ``check(context)`` generator over a parsed
module.  The engine owns everything rule-independent: file discovery,
parsing, relative-path computation (rule allowlists match on paths relative
to the linted root, e.g. ``sim/rng.py``), suppression-comment filtering, and
stable output ordering.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing

from repro.analysis_tools.simlint.diagnostics import Diagnostic, Severity
from repro.analysis_tools.simlint.suppressions import (
    SuppressionIndex,
    parse_suppressions,
)


@dataclasses.dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    #: Path relative to the linted root, with ``/`` separators
    #: (``sim/rng.py``).  Rule allowlists match against this.
    relpath: str
    #: Display path (as given on the command line / found on disk).
    path: str
    tree: ast.Module
    source: str

    def diagnostic(self, rule: "Rule", node: ast.AST,
                   message: str) -> Diagnostic:
        """Build a diagnostic for ``node`` in this file."""
        return Diagnostic(
            rule=rule.rule_id, severity=rule.severity, path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message)


class Rule:
    """Base class for simlint rules.

    Subclasses set :attr:`rule_id`, :attr:`severity`, and
    :attr:`description`, and implement :meth:`check` yielding diagnostics.
    """

    rule_id: str = "SL000"
    severity: Severity = Severity.WARNING
    description: str = ""

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        raise NotImplementedError
        yield  # pragma: no cover


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic]
    files_checked: int
    suppressed: int

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when no diagnostics (of any severity) remain."""
        return not self.diagnostics

    def render(self) -> str:
        lines = [diag.format() for diag in self.diagnostics]
        summary = (f"simlint: {len(self.diagnostics)} finding(s) "
                   f"({len(self.errors)} error(s)) in "
                   f"{self.files_checked} file(s)")
        if self.suppressed:
            summary += f", {self.suppressed} suppression comment(s)"
        lines.append(summary)
        return "\n".join(lines)


class Linter:
    """Runs a rule set over files or source strings."""

    def __init__(self, rules: typing.Sequence[Rule] | None = None) -> None:
        if rules is None:
            from repro.analysis_tools.simlint.rules import default_rules

            rules = default_rules()
        self.rules: list[Rule] = list(rules)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def lint_source(self, source: str, relpath: str = "<string>",
                    path: str | None = None) -> list[Diagnostic]:
        """Lint a source string as if it lived at ``relpath``.

        Project rules in the rule list see a project of this one file.
        """
        tree = ast.parse(source, filename=relpath)
        context = FileContext(relpath=relpath, path=path or relpath,
                              tree=tree, source=source)
        suppressions = parse_suppressions(source, tree)
        kept = self._run_rules(context, suppressions)[0]
        kept.extend(self._run_project_rules([(context, suppressions)])[0])
        return kept

    def lint_paths(self, paths: typing.Sequence[str | pathlib.Path],
                   root: str | pathlib.Path | None = None) -> LintResult:
        """Lint every ``.py`` file under ``paths``.

        ``root`` anchors the relative paths rule allowlists match against;
        it defaults to each argument path itself (so linting ``src/repro``
        yields relpaths like ``sim/rng.py``).  Any
        :class:`~repro.analysis_tools.simlint.project.ProjectRule` in the
        rule list runs once over the whole file set (symbol table + call
        graph); per-file suppressions still apply to its diagnostics.
        """
        diagnostics: list[Diagnostic] = []
        files_checked = 0
        suppressed = 0
        parsed: list[tuple["FileContext", SuppressionIndex]] = []
        for base in paths:
            base_path = pathlib.Path(base)
            anchor = pathlib.Path(root) if root is not None else base_path
            if anchor.is_file():
                anchor = anchor.parent
            for file_path in self._discover(base_path):
                files_checked += 1
                diags, file_suppressed, entry = self._lint_file(
                    file_path, anchor)
                diagnostics.extend(diags)
                suppressed += file_suppressed
                if entry is not None:
                    parsed.append(entry)
        project_diags, project_suppressed = self._run_project_rules(parsed)
        diagnostics.extend(project_diags)
        suppressed += project_suppressed
        diagnostics.sort(key=lambda d: (d.path, d.line, d.column, d.rule))
        return LintResult(diagnostics=diagnostics,
                          files_checked=files_checked,
                          suppressed=suppressed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _discover(base: pathlib.Path) -> list[pathlib.Path]:
        if base.is_file():
            return [base]
        return sorted(path for path in base.rglob("*.py")
                      if path.is_file())

    def _lint_file(
            self, file_path: pathlib.Path, anchor: pathlib.Path,
    ) -> tuple[list[Diagnostic], int,
               tuple[FileContext, SuppressionIndex] | None]:
        source = file_path.read_text(encoding="utf-8")
        try:
            relpath = file_path.relative_to(anchor).as_posix()
        except ValueError:
            relpath = file_path.as_posix()
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as error:
            diag = Diagnostic(
                rule="SL000", severity=Severity.ERROR, path=str(file_path),
                line=error.lineno or 1, column=(error.offset or 0) + 1,
                message=f"syntax error: {error.msg}")
            return [diag], 0, None
        context = FileContext(relpath=relpath, path=str(file_path),
                              tree=tree, source=source)
        suppressions = parse_suppressions(source, tree)
        kept, suppressed = self._run_rules(context, suppressions)
        return kept, suppressed, (context, suppressions)

    def _run_rules(self, context: FileContext,
                   suppressions: SuppressionIndex
                   ) -> tuple[list[Diagnostic], int]:
        kept: list[Diagnostic] = []
        suppressed = 0
        for rule in self.rules:
            for diag in rule.check(context):
                if suppressions.is_suppressed(diag.rule, diag.line):
                    suppressed += 1
                else:
                    kept.append(diag)
        return kept, suppressed

    def _run_project_rules(
            self, parsed: typing.Sequence[
                tuple[FileContext, SuppressionIndex]],
    ) -> tuple[list[Diagnostic], int]:
        from repro.analysis_tools.simlint.project import (
            ProjectContext,
            ProjectRule,
        )

        project_rules = [rule for rule in self.rules
                         if isinstance(rule, ProjectRule)]
        if not project_rules or not parsed:
            return [], 0
        project = ProjectContext([context for context, _ in parsed])
        by_path = {context.path: suppressions
                   for context, suppressions in parsed}
        kept: list[Diagnostic] = []
        suppressed = 0
        for rule in project_rules:
            for diag in rule.check_project(project):
                index = by_path.get(diag.path)
                if index is not None and index.is_suppressed(
                        diag.rule, diag.line):
                    suppressed += 1
                else:
                    kept.append(diag)
        return kept, suppressed


def lint_source(source: str, relpath: str = "<string>") -> list[Diagnostic]:
    """Convenience wrapper: lint one source string with the default rules."""
    return Linter().lint_source(source, relpath=relpath)


def lint_paths(paths: typing.Sequence[str | pathlib.Path],
               root: str | pathlib.Path | None = None) -> LintResult:
    """Convenience wrapper: lint paths with the default rules."""
    return Linter().lint_paths(paths, root=root)
