"""Golden hashes of observed runs' trace summaries.

The trace digests (``test_golden_digests.py``) pin the event schedule.
These pin what the observability layer reports about it: the trace
summary JSON of ``repro trace --summary-out`` (critical path plus the
per-resource report) must stay byte-identical, so a kernel edit that
moves a monitor call or a span shows up even when the schedule does not
move.  Two small runs:

- the CI ``trace --rate 60 --duration 4`` configuration, where the
  validator worker pools queue;
- a 12-peer, 2-channel Raft scale-out topology at 200 tx/s for 3 s,
  where the peer CPUs queue too.

Regenerate deliberately with ``pytest tests/fabric --update-golden``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.experiments.runner import make_workload, run_traced_point
from repro.experiments.scale import make_scale_topology
from repro.fabric.network import FabricNetwork

GOLDEN_FILE = pathlib.Path(__file__).parent / "golden" / "trace_summaries.json"


def _ci_trace() -> dict:
    point = run_traced_point(orderer_kind="solo", policy="AND5", rate=60.0,
                             duration=4.0, seed=1)
    return point.network.trace_summary(scenario="solo-AND5-60tps",
                                       phase_metrics=point.metrics)


def _scale_trace() -> dict:
    network = FabricNetwork(make_scale_topology(12, 2, orderer_kind="raft"),
                            make_workload(200.0, 3.0), seed=1, observe=True)
    metrics = network.run_workload()
    return network.trace_summary(scenario="raft-12p2c-200tps",
                                 phase_metrics=metrics)


RUNS = {"solo-AND5-60tps": _ci_trace, "raft-12p2c-200tps": _scale_trace}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_summary_matches_golden(name: str, update_golden: bool) -> None:
    # Serialised exactly as ``repro trace --summary-out`` writes it.
    text = json.dumps(RUNS[name](), indent=2, sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    goldens = (json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
               if GOLDEN_FILE.exists() else {})
    if update_golden:
        goldens[name] = digest
        GOLDEN_FILE.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        return
    assert name in goldens, (
        f"no committed trace-summary golden for {name}; generate one "
        f"deliberately with pytest tests/fabric --update-golden")
    assert digest == goldens[name], (
        f"the trace summary of {name} changed: a monitor call, span or "
        f"wait moved.  If that is deliberate, regenerate with "
        f"pytest tests/fabric --update-golden and say so in the commit.")
