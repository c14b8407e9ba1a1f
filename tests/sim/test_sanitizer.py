"""Tests for the runtime determinism sanitizer (trace digests, diffing)."""

from repro.sim import RngRegistry, Simulation
from repro.sim.core import Courier
from repro.sim.sanitizer import (
    TraceDigest,
    diff_records,
    digest_run,
    event_owner,
    run_twice_and_diff,
)


def pingpong_model(seed: int = 1, jitter_name: str = "net"):
    """A small two-process model with RNG-driven timing."""
    sim = Simulation()
    rng = RngRegistry(seed=seed)

    def ping():
        for _ in range(20):
            yield sim.timeout(rng.exponential(jitter_name, 0.5))

    def pong():
        for _ in range(20):
            yield sim.timeout(rng.exponential("service", 0.3))

    sim.process(ping())
    sim.process(pong())
    return sim


def run_model(seed: int = 1, **kwargs) -> TraceDigest:
    sim = pingpong_model(seed=seed, **kwargs)
    return digest_run(sim, sim.run)


def test_same_seed_same_digest():
    first = run_model(seed=5)
    second = run_model(seed=5)
    assert first.hexdigest == second.hexdigest
    assert first.events_recorded == second.events_recorded > 0
    assert first.records == second.records


def test_different_seed_different_digest():
    assert run_model(seed=1).hexdigest != run_model(seed=2).hexdigest


def test_digest_sensitive_to_rng_stream_renaming():
    # Renaming a stream reroutes draws: the schedule itself changes.
    assert (run_model(seed=1, jitter_name="net").hexdigest
            != run_model(seed=1, jitter_name="other").hexdigest)


def test_detach_stops_recording():
    sim = Simulation()
    digest = TraceDigest(sim).attach()

    def worker():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(worker())
    sim.run(until=1.5)
    seen = digest.events_recorded
    assert seen > 0
    digest.detach()
    sim.run()
    assert digest.events_recorded == seen


def test_records_carry_owner_labels():
    digest = run_model()
    owners = {record.owner for record in digest.records}
    assert any("ping" in owner for owner in owners)
    assert any("pong" in owner for owner in owners)
    # No memory addresses: labels must be identical across runs.
    assert not any("0x" in owner for owner in owners)


def test_courier_callback_labels_its_pop_with_the_courier_name():
    sim = Simulation()
    steps = []

    class Relay(Courier):
        __slots__ = ()
        name = "relay"

        def hop(self, event):
            steps.append(sim.now)
            sim.timeout(1.0).callbacks.append(self.land)

        def land(self, event):
            steps.append(sim.now)

    sim.timeout(1.0).callbacks.append(Relay().hop)
    digest = digest_run(sim, sim.run)
    assert steps == [1.0, 2.0]
    assert [(record.event_type, record.owner)
            for record in digest.records] == [
        ("Timeout", "relay"), ("Timeout", "relay")]


def test_event_owner_joins_processes_and_couriers():
    sim = Simulation()

    class Relay(Courier):
        __slots__ = ()
        name = "relay"

        def hop(self, event):
            pass

    def waiter():
        yield shared

    shared = sim.event()
    sim.process(waiter(), eager=True)
    shared.callbacks.append(Relay().hop)
    assert event_owner(shared) == "waiter,relay"


def test_run_twice_and_diff_identical():
    report = run_twice_and_diff(lambda: run_model(seed=3))
    assert report.identical
    assert report.divergence is None
    assert report.digest_a == report.digest_b
    assert "DETERMINISTIC" in report.render()


def test_run_twice_and_diff_reports_first_divergence():
    seeds = iter([1, 2])
    report = run_twice_and_diff(lambda: run_model(seed=next(seeds)))
    assert not report.identical
    assert report.divergence is not None
    assert report.divergence.index >= 0
    rendered = report.render()
    assert "NON-DETERMINISTIC" in rendered
    assert "first divergence" in rendered


def test_diff_records_finds_first_mismatch():
    left = run_model(seed=1).records
    right = list(left)
    mutated = right[4]._replace(owner="intruder")
    right[4] = mutated
    divergence = diff_records(left, right)
    assert divergence.index == 4
    assert divergence.right.owner == "intruder"


def test_diff_records_length_mismatch():
    left = run_model(seed=1).records
    divergence = diff_records(left, left[:-1])
    assert divergence.index == len(left) - 1
    assert divergence.right is None


def test_tie_auditor_flags_same_time_distinct_processes():
    sim = Simulation()
    digest = TraceDigest(sim).attach()

    def a():
        yield sim.timeout(1.0)

    def b():
        yield sim.timeout(1.0)

    sim.process(a())
    sim.process(b())
    sim.run()
    assert digest.tie_count >= 1
    assert any({"a", "b"} <= {tie.first_owner, tie.second_owner}
               for tie in digest.tie_examples)


def test_no_ties_in_strictly_ordered_model():
    sim = Simulation()
    digest = TraceDigest(sim).attach()

    def lonely():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    sim.process(lonely())
    sim.run()
    assert digest.tie_count == 0


def test_keep_records_false_still_digests():
    sim = pingpong_model(seed=9)
    digest = digest_run(sim, sim.run, keep_records=False)
    assert digest.records == []
    assert digest.events_recorded > 0
    assert digest.hexdigest == run_model(seed=9).hexdigest
