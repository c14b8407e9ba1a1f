"""Contract: a simulation run allocates no reference cycles.

:meth:`repro.sim.core.Simulation.run` pauses CPython's automatic cyclic
collector while its loop runs.  That is safe only because every object a
run creates dies by reference count: a cycle made inside the loop would
be held until ``run`` returns.  Each case builds a network, runs its
workload with the collector off, and asserts that a collection made while
the network is still alive finds nothing unreachable.
"""

import collections
import gc

import pytest

from repro.common.config import StateDBConfig
from repro.experiments import faults
from repro.experiments.runner import make_topology, make_workload
from repro.fabric.network import FabricNetwork

#: Collections made to empty the heap of earlier tests' garbage.  A
#: Kafka network dropped mid-run takes two: its parked ``_transmit``,
#: ``_heartbeat_loop`` and ``_session_monitor`` generators are finalized
#: by the first pass and freed by the second.
SETTLE_PASSES = 10


def _smoke_network(kind, statedb=None, workload_kind="unique",
                   observe=False):
    topology = make_topology(kind, "AND2", 4, statedb=statedb)
    return FabricNetwork(topology, make_workload(60, 4), seed=1,
                         workload_kind=workload_kind, observe=observe)


COUCHDB = StateDBConfig(kind="couchdb", cache=True, bulk=True,
                        snapshot_interval=3)

SMOKE = {
    "solo-leveldb": dict(kind="solo"),
    "raft-leveldb": dict(kind="raft"),
    "kafka-leveldb": dict(kind="kafka"),
    "raft-couchdb-conflict": dict(kind="raft", statedb=COUCHDB,
                                  workload_kind="conflict"),
}


def _assert_run_allocates_no_cycles(build):
    """Run ``build()``'s workload with the collector off, then collect
    while the network is still alive: nothing may be unreachable."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    try:
        for _ in range(SETTLE_PASSES):
            if gc.collect() == 0:
                break
        network = build()
        gc.collect()
        gc.disable()
        network.run_workload()
        # Keep what the collection finds, to name it.
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = collections.Counter(type(obj).__name__
                                      for obj in gc.garbage)
        gc.garbage.clear()
        assert network.sim.events_processed > 0
    finally:
        gc.set_debug(debug)
        gc.collect()
        if enabled:
            gc.enable()
    assert found == 0, (
        f"the run left unreachable cycles: {garbage.most_common(10)}")


@pytest.mark.parametrize("observe", [False, True],
                         ids=["unobserved", "observed"])
@pytest.mark.parametrize("case", sorted(SMOKE))
def test_smoke_run_allocates_no_reference_cycles(case, observe):
    _assert_run_allocates_no_cycles(
        lambda: _smoke_network(observe=observe, **SMOKE[case]))


@pytest.mark.parametrize("name", sorted(faults.SCENARIOS))
def test_fault_scenario_allocates_no_reference_cycles(name):
    _assert_run_allocates_no_cycles(
        lambda: faults.SCENARIOS[name].build_network(seed=1))
