"""Rule profiles: which rules run where.

``strict`` is the full v2 rule set — the ten per-file AST rules, the
three flow rules (SL011/SL013/SL016), and (in project mode) the three
cross-file rules (SL012/SL014/SL015).  It applies to ``src/``.  The
``project`` switch is the one place that decides whether the cross-file
rules run: a linter runs every project rule its rule list holds.

``relaxed`` is for harness code — ``tests/`` and ``benchmarks/`` — where
some determinism rules are wrong by construction:

- SL002/SL014 (wall-clock / host taint): benchmarks *measure* wall-clock
  time and tests time out on it; that is their job, not a bug.
- SL006 (``== sim.now``): tests assert *exact* simulated times on
  purpose — a deterministic schedule makes float equality meaningful
  there.
- SL008 (module-level mutable state): pytest fixtures and parametrize
  tables live at module level by design.

Everything else — resource-leak discipline, generator protocol, RNG
hygiene — applies to harness code exactly as to simulation code, because
a leaked slot or unyielded generator in a test silently weakens the
test.
"""

from __future__ import annotations

from repro.analysis_tools.simlint.engine import Linter, Rule
from repro.analysis_tools.simlint.flow_rules import flow_rules, project_rules
from repro.analysis_tools.simlint.rules import default_rules

#: Rule ids excluded from the relaxed (tests/benchmarks) profile.
RELAXED_EXCLUDED = frozenset({"SL002", "SL006", "SL008", "SL014"})

PROFILES = ("strict", "relaxed")


def strict_rules(project: bool = False) -> list[Rule]:
    """The full v2 rule set; ``project=True`` adds the cross-file rules."""
    rules: list[Rule] = [*default_rules(), *flow_rules()]
    if project:
        rules.extend(project_rules())
    rules.sort(key=lambda rule: rule.rule_id)
    return rules


def relaxed_rules(project: bool = False) -> list[Rule]:
    """The harness-code profile (see module docstring for exclusions)."""
    return [rule for rule in strict_rules(project=project)
            if rule.rule_id not in RELAXED_EXCLUDED]


def rules_for(profile: str, project: bool = False) -> list[Rule]:
    if profile == "strict":
        return strict_rules(project=project)
    if profile == "relaxed":
        return relaxed_rules(project=project)
    raise ValueError(
        f"unknown profile {profile!r}; expected one of {PROFILES}")


def linter_for(profile: str, project: bool = False) -> Linter:
    return Linter(rules=rules_for(profile, project=project))
