"""Pinned runs of the load paths the perfbench goldens do not reach.

The golden digests (``test_golden_digests.py``) only drive classic
uniform clients and unique-key populations.  These seven small runs
cover the rest of the load rule: Poisson arrivals with conflicting,
skewed keys; more clients than peers; a three-channel round-robin; a
per-channel mix whose key order differs from the channel order; a
population with a per-channel mix; a population with a per-user rate;
and flat leader gossip.

Each pin is the run's trace digest, its client list (name and channel,
in build order) and the analytic model's prediction for the same
configuration.  Digests and client lists must match exactly, model
values to a relative 1e-12.  Regenerate deliberately with
``pytest tests/fabric --update-golden``.
"""

from __future__ import annotations

import json
import math
import pathlib
import typing

import pytest

from repro.analysis import PhaseModel
from repro.common.config import (
    ChannelConfig,
    ChannelWorkload,
    OrdererConfig,
    PopulationConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.fabric.network import FabricNetwork
from repro.sim.sanitizer import digest_run

GOLDEN_FILE = pathlib.Path(__file__).parent / "golden" / "load_paths.json"

SEED = 5


def _topology(peers: int = 4, channels: typing.Sequence[str] = ("ch1",),
              orderer: str = "solo", **kwargs) -> TopologyConfig:
    first, *rest = channels
    return TopologyConfig(
        num_endorsing_peers=peers,
        channel=ChannelConfig(name=first, endorsement_policy="OR(1..n)"),
        extra_channels=[ChannelConfig(name=name,
                                      endorsement_policy="OR(1..n)")
                        for name in rest],
        orderer=OrdererConfig(kind=orderer,
                              num_osns=1 if orderer == "solo" else 3),
        **kwargs)


def _workload(rate: float = 60.0, **kwargs) -> WorkloadConfig:
    return WorkloadConfig(arrival_rate=rate, duration=4.0, warmup=1.0,
                          cooldown=0.5, **kwargs)


#: name -> (topology, workload, workload kind)
CONFIGS: dict[str, typing.Callable[
    [], tuple[TopologyConfig, WorkloadConfig, str]]] = {
    "poisson-conflict-skew": lambda: (
        _topology(),
        _workload(arrival_process="poisson", key_space=40,
                  read_write_conflict_skew=1.5),
        "conflict"),
    "poisson-unique-5c3p": lambda: (
        _topology(peers=3),
        _workload(arrival_process="poisson", num_clients=5),
        "unique"),
    "round-robin-3ch": lambda: (
        _topology(channels=("a", "b", "c")),
        _workload(num_clients=5, tx_size=16),
        "unique"),
    "per-channel-mix": lambda: (
        _topology(channels=("hot", "cold", "idle")),
        _workload(rate=0.0, num_clients=5, per_channel={
            "cold": ChannelWorkload(rate=15.0, tx_size=8),
            "hot": ChannelWorkload(rate=45.0, workload="conflict",
                                   key_space=20, skew=1.0),
            "idle": ChannelWorkload(rate=0.0)}),
        "unique"),
    "population-per-channel": lambda: (
        _topology(channels=("ch1", "ch2")),
        _workload(population=PopulationConfig(num_users=1000,
                                              cohorts_per_channel=2),
                  per_channel={
                      "ch1": ChannelWorkload(rate=40.0, workload="conflict",
                                             key_space=30, skew=1.2),
                      "ch2": ChannelWorkload(rate=20.0)}),
        "unique"),
    "population-user-rate": lambda: (
        _topology(channels=("ch1", "ch2")),
        _workload(read_write_conflict_skew=0.8,
                  population=PopulationConfig(num_users=7,
                                              cohorts_per_channel=3,
                                              user_rate=5.0)),
        "unique"),
    "flat-gossip": lambda: (
        _topology(orderer="raft", num_committing_only_peers=3, gossip=True,
                  gossip_fanout=0),
        _workload(),
        "unique"),
}


def observe(name: str) -> dict[str, typing.Any]:
    """Run one pinned configuration and collect what the pin compares."""
    topology, workload, kind = CONFIGS[name]()
    network = FabricNetwork(topology, workload, seed=SEED,
                            workload_kind=kind)
    digest = digest_run(network.sim, network.run_workload,
                        keep_records=False)
    model = PhaseModel(topology, workload, workload_kind=kind)
    return {"digest": digest.hexdigest,
            "clients": [[client.name, client.channel]
                        for client in network.clients],
            "model": model.predict().as_dict()}


def assert_close(observed: typing.Any, expected: typing.Any,
                 path: str = "model") -> None:
    """Equal structure and strings; floats equal to a relative 1e-12."""
    if isinstance(expected, dict):
        assert isinstance(observed, dict) and (
            sorted(observed) == sorted(expected)), path
        for key in expected:
            assert_close(observed[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(observed, list), path
        assert len(observed) == len(expected), path
        for index, (left, right) in enumerate(zip(observed, expected)):
            assert_close(left, right, f"{path}[{index}]")
    elif isinstance(expected, float) and isinstance(observed, (int, float)):
        assert observed == expected or math.isclose(
            observed, expected, rel_tol=1e-12), (
            f"{path}: {observed!r} != {expected!r}")
    else:
        assert observed == expected, f"{path}: {observed!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_load_path_matches_pin(name: str, update_golden: bool) -> None:
    # Round-tripped through JSON so inf and tuples compare as stored.
    observed = json.loads(json.dumps(observe(name)))
    pins = (json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
            if GOLDEN_FILE.exists() else {})
    if update_golden:
        pins[name] = observed
        GOLDEN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        return
    assert name in pins, (
        f"no committed load-path pin for {name}; generate one "
        f"deliberately with pytest tests/fabric --update-golden")
    expected = pins[name]
    assert observed["digest"] == expected["digest"], (
        f"the event schedule of {name} changed")
    assert observed["clients"] == expected["clients"]
    assert_close(observed["model"], expected["model"])
