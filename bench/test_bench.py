"""Self-tests of the benchmark, at a tiny simulated duration.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
import types

import pytest

from bench import run, workloads
from bench.layers import LAYERS, LayerTrace
from bench.workloads import WORKLOADS
from repro.fabric.network import FabricNetwork
from repro.msp.msp import MSP

SPEC = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY = 2.0  # simulated seconds of load per run


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setattr(workloads, "SIM_SECONDS", TINY)


def _bench(workload: str, trace: int) -> dict:
    return run.benchmark(["--workload", workload, "--seed", "2",
                          "--seconds", "0.5", "--trace", str(trace)])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(trace):
    result = _bench("raft-scaleout-60p4c", trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]


def _shares(workload) -> dict[str, float]:
    with LayerTrace() as trace:
        network = workload.network(seed=2, sim_seconds=TINY)
        # A collection lands on whichever layer allocates at the time; in
        # a run this short one would move a share by several points.
        gc.collect()
        gc.disable()
        try:
            trace.measure(network.run_workload)
        finally:
            gc.enable()
    # Timed self time as charged: at this size too few samples land in each
    # layer to net out the shims' own cost reliably.
    self_s = trace.self_seconds(net=False)
    total = sum(self_s.values())
    return {layer: self_s[layer] / total for layer in LAYERS}


def test_slowdown_injected_into_one_layer_is_named_by_that_layer(
        monkeypatch):
    workload = WORKLOADS["solo-and5-validate"]
    before = _shares(workload)
    original = MSP.verify_signature

    def spin(seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    # Compiled into the msp module's namespace: the busy-wait is msp code.
    slow_spin = types.FunctionType(spin.__code__, vars(
        __import__("repro.msp.msp", fromlist=["MSP"])) | {"time": time})

    def verify_signature(self, signature, message, msp_id):
        slow_spin(50e-6)
        return original(self, signature, message, msp_id)

    monkeypatch.setattr(MSP, "verify_signature", verify_signature)
    after = _shares(workload)
    assert after["msp"] > before["msp"] + 0.10
    for layer in LAYERS:
        if layer != "msp":
            assert after[layer] < before[layer] + 0.03, layer


def _inject_after_run(monkeypatch, damage) -> None:
    original = FabricNetwork.run_workload

    def run_workload(self, *args, **kwargs):
        metrics = original(self, *args, **kwargs)
        damage(self)
        return metrics

    monkeypatch.setattr(FabricNetwork, "run_workload", run_workload)


def test_corrupted_ledger_is_a_failed_operation(monkeypatch):
    def corrupt(network):
        channel = network.channel_names[0]
        network.peers[1].ledger_for(channel).blocks.get(2).data_hash = "0"

    _inject_after_run(monkeypatch, corrupt)
    result = _bench("solo-and5-validate", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_dropped_transaction_is_a_failed_operation(monkeypatch):
    def drop(network):
        records = network.metrics.records
        committed = next(tx_id for tx_id, record in records.items()
                         if record.committed is not None)
        del records[committed]

    _inject_after_run(monkeypatch, drop)
    result = _bench("raft-couchdb-conflict", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
