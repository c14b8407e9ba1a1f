"""Tests for ``repro perfbench --owners``: the pop-owner census."""

import gc

from repro.experiments import perfbench
from repro.sim import Simulation


def test_owner_census_hook_leaves_the_run_unchanged():
    scenario = perfbench.SCENARIOS["raft-and-couchdb"].at_scale("smoke")
    plain = perfbench._build_network(scenario, perfbench.GOLDEN_SEED)
    plain_metrics = plain.run_workload()

    census, metrics = perfbench.census_scenario("raft-and-couchdb",
                                                scale="smoke")
    assert sum(census.pops.values()) == plain.sim.events_processed
    assert metrics == plain_metrics
    owners = {owner for _event_type, owner in census.pops}
    assert "_vscc_one" in owners
    assert set(census.seconds) <= set(census.pops)
    assert all(seconds >= 0.0 for seconds in census.seconds.values())
    # The collector hook was on for the run and is off again.
    assert census.on_collect not in gc.callbacks
    assert census.collector_s >= 0.0
    assert census.render().splitlines()[-1].split()[:3] == [
        "gc", "collector", "-"]


def test_owner_census_moves_a_collector_pass_out_of_the_pop():
    sim = Simulation()

    def collecting(sim):
        yield sim.timeout(1)
        gc.collect()
        yield sim.timeout(1)

    sim.process(collecting(sim))
    census = perfbench.PopOwnerCensus()
    enabled = gc.isenabled()
    gc.disable()  # no automatic pass while the hook is on, in or out of run
    sim.set_trace(census)
    gc.callbacks.append(census.on_collect)
    try:
        sim.run()
    finally:
        gc.callbacks.remove(census.on_collect)
        sim.set_trace(None)
        if enabled:
            gc.enable()
    census.stop()
    assert census.collections == [0, 0, 1]
    # The pass walks the whole test process's heap; the pop that made it
    # resumes one generator, and is charged for that alone.
    pop_s = census.seconds[("Timeout", "collecting")]
    assert 0.0 < pop_s < census.collector_s
    assert census.render().splitlines()[-1].split()[-4:] == [
        "0/0/1", "passes,", f"{census.collector_s:.2f}", "s"]


def test_owner_census_renders_pop_and_time_shares():
    census = perfbench.PopOwnerCensus()
    census.pops = {("Timeout", "_drain"): 4}
    census.seconds = {("Timeout", "_drain"): 0.6}
    # One-pop rows of 0.02 s each: CENSUS_ROWS - 1 of them are listed
    # after `_drain`, and the other nine are summed.
    for index in range(perfbench.CENSUS_ROWS + 8):
        census.pops[("Process", f"p{index:02d}")] = 1
        census.seconds[("Process", f"p{index:02d}")] = 0.02
    lines = census.render().splitlines()
    total = 4 + perfbench.CENSUS_ROWS + 8
    assert lines[0] == f"{total} pops, 1.00 host s (hook included)"
    assert lines[2].split() == ["Timeout", "_drain", f"{4 / total:.1%}",
                                "60.0%", "150000.0"]
    assert len(lines) == 2 + perfbench.CENSUS_ROWS + 2
    assert lines[-2].split() == ["everything", "else", f"{9 / total:.1%}",
                                 "18.0%", "20000.0"]
    assert lines[-1].split() == ["gc", "collector", "-", "0.0%", "0/0/0",
                                 "passes,", "0.00", "s"]


def test_owner_census_collector_row_shares_the_host_time():
    census = perfbench.PopOwnerCensus()
    census.pops = {("Timeout", "_drain"): 2}
    census.seconds = {("Timeout", "_drain"): 0.75}
    census.collections = [3, 1, 0]
    census.collector_s = 0.25
    lines = census.render().splitlines()
    assert lines[0] == "2 pops, 1.00 host s (hook included)"
    assert lines[2].split() == ["Timeout", "_drain", "100.0%", "75.0%",
                                "375000.0"]
    assert lines[-1].split() == ["gc", "collector", "-", "25.0%", "3/1/0",
                                 "passes,", "0.25", "s"]


def test_run_perfbench_owners_adds_each_census_to_the_report():
    report = perfbench.run_perfbench(["solo-or-leveldb"], scale="smoke",
                                     owners=True)
    [result] = report.results
    assert result.owners is not None
    assert "pop owners of solo-or-leveldb" in report.render()
    assert result.owners.render() in report.render()
