"""Cross-validation: the analytic phase model vs the simulator.

The stochastic phase model (:mod:`repro.analysis.phase_model`) predicts
throughput and latency distributions in closed form; this module is its
standing accuracy contract.  For each scenario of the perfbench matrix it
runs the real simulation, builds the phase model from the *same*
topology/workload config objects, and compares:

- **gated** (fail the run beyond tolerance): committed throughput, and
  end-to-end latency p50 and p95;
- **reported** (accuracy bookkeeping, not gated): per-phase mean
  latencies (execute / order / validate), where the decomposition either
  earns its keep or shows exactly which station drifted.

Tolerances are deliberate and asymmetric to the metric: throughput wears
the simulator's finite-measurement-window bias (a ~1 s pipeline fill
inside a short smoke window depresses the committed rate below the
offered rate), and latency quantiles wear the two-moment lognormal
approximation.  ``repro crossval --smoke`` is the CI gate; ``--out``
writes the full report JSON as a build artifact.

CLI::

    repro crossval --smoke                  # CI gate, scaled-down subset
    repro crossval                          # full perfbench matrix
    repro crossval --perf-scenario solo-and-leveldb --out crossval.json
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from repro.analysis.phase_model import PhaseModel
from repro.experiments.farm import run_farm
from repro.experiments.perfbench import (
    GOLDEN_SEED,
    SCENARIOS,
    _build_network,
)

__all__ = ["TOLERANCES", "MetricCheck", "ScenarioCrossval",
           "CrossvalReport", "crossval_scenario", "run_crossval"]

#: Declared relative-error tolerances for the gated metrics.
TOLERANCES: dict[str, float] = {
    "throughput": 0.25,
    "latency_p50": 0.35,
    "latency_p95": 0.40,
}


@dataclasses.dataclass(frozen=True)
class MetricCheck:
    """One simulated-vs-predicted comparison."""

    metric: str
    simulated: float
    predicted: float
    #: Gate threshold; ``None`` marks an informational (ungated) metric.
    tolerance: float | None = None

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.simulated), 1e-9)
        return abs(self.predicted - self.simulated) / scale

    @property
    def ok(self) -> bool:
        return self.tolerance is None or self.rel_error <= self.tolerance

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "metric": self.metric,
            "simulated": self.simulated,
            "predicted": self.predicted,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


@dataclasses.dataclass
class ScenarioCrossval:
    """One scenario's full comparison."""

    scenario: str
    scale: str
    seed: int
    checks: list[MetricCheck]
    phases: list[MetricCheck]
    bottleneck: str
    capacity: float

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "ok": self.ok,
            "bottleneck": self.bottleneck,
            "capacity": self.capacity,
            "checks": [check.as_dict() for check in self.checks],
            "phases": [check.as_dict() for check in self.phases],
        }


def crossval_scenario(name: str, seed: int = GOLDEN_SEED,
                      scale: str = "full") -> ScenarioCrossval:
    """Simulate one perfbench scenario and compare the model against it."""
    scenario = SCENARIOS[name].at_scale(scale)
    network = _build_network(scenario, seed)
    metrics = network.run_workload()
    model = PhaseModel(network.topology, network.workload_config,
                       costs=network.context.costs)
    prediction = model.predict()
    latency = prediction.latency
    checks = [
        MetricCheck("throughput", metrics.overall_throughput,
                    prediction.throughput, TOLERANCES["throughput"]),
        MetricCheck("latency_p50", metrics.overall_latency_p50,
                    latency.p50, TOLERANCES["latency_p50"]),
        MetricCheck("latency_p95", metrics.overall_latency_p95,
                    latency.p95, TOLERANCES["latency_p95"]),
    ]
    phases = [
        MetricCheck("execute_mean", metrics.execute_latency,
                    prediction.execute.mean),
        MetricCheck("order_mean", metrics.order_latency,
                    prediction.order.mean),
        MetricCheck("validate_mean", metrics.validate_latency,
                    prediction.validate.mean),
    ]
    return ScenarioCrossval(
        scenario=name, scale=scale, seed=seed, checks=checks,
        phases=phases, bottleneck=prediction.bottleneck,
        capacity=prediction.capacity)


@dataclasses.dataclass
class CrossvalReport:
    """All scenario comparisons of one ``repro crossval`` invocation."""

    results: list[ScenarioCrossval]
    scale: str
    seed: int

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "ok": self.ok,
            "tolerances": dict(TOLERANCES),
            "results": [result.as_dict() for result in self.results],
        }

    def write_json(self, path: str | pathlib.Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [f"crossval ({self.scale} scale, seed {self.seed}): "
                 f"predicted vs simulated"]
        for result in self.results:
            lines.append(f"\n{result.scenario}  "
                         f"[model capacity {result.capacity:.0f} tx/s, "
                         f"bottleneck {result.bottleneck}]")
            lines.append(f"  {'metric':<14} {'sim':>9} {'model':>9} "
                         f"{'err':>7}  verdict")
            for check in result.checks + result.phases:
                if check.tolerance is None:
                    verdict = "-"
                else:
                    verdict = ("ok" if check.ok
                               else f"FAIL (> {check.tolerance:.0%})")
                lines.append(
                    f"  {check.metric:<14} {check.simulated:>9.3f} "
                    f"{check.predicted:>9.3f} {check.rel_error:>6.1%}  "
                    f"{verdict}")
        failing = [result.scenario for result in self.results
                   if not result.ok]
        if failing:
            lines.append(f"\ncrossval: {len(failing)}/{len(self.results)} "
                         f"scenario(s) beyond tolerance: "
                         f"{', '.join(failing)}")
        else:
            lines.append(f"\ncrossval: all {len(self.results)} scenario(s) "
                         f"within declared tolerances")
        return "\n".join(lines)


def _scenario_worker(task: tuple[str, int, str]) -> ScenarioCrossval:
    """Farm worker: one crossval scenario from its explicit task tuple."""
    name, seed, scale = task
    return crossval_scenario(name, seed=seed, scale=scale)


def run_crossval(names: typing.Sequence[str] | None = None,
                 seed: int = GOLDEN_SEED,
                 scale: str = "full",
                 jobs: int = 1) -> CrossvalReport:
    """Cross-validate ``names`` (default: the whole perfbench matrix).

    ``jobs > 1`` farms scenarios across processes; the report JSON is
    byte-identical to a sequential run (crossval carries no wall-clock
    fields), in the same scenario order.
    """
    if names is None:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown crossval scenario(s): {unknown}; "
                       f"known: {sorted(SCENARIOS)}")
    results = run_farm(_scenario_worker,
                       [(name, seed, scale) for name in names],
                       jobs=jobs, labels=list(names))
    return CrossvalReport(results=results, scale=scale, seed=seed)
