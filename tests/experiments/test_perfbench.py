"""Tests for ``repro perfbench --owners``: the pop-owner census."""

from repro.experiments import perfbench


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
    assert len(lines) == 2 + perfbench.CENSUS_ROWS + 1
    assert lines[-1].split() == ["everything", "else", f"{9 / total:.1%}",
                                 "18.0%", "20000.0"]


def test_run_perfbench_owners_adds_each_census_to_the_report():
    report = perfbench.run_perfbench(["solo-or-leveldb"], scale="smoke",
                                     owners=True)
    [result] = report.results
    assert result.owners is not None
    assert "pop owners of solo-or-leveldb" in report.render()
    assert result.owners.render() in report.render()
