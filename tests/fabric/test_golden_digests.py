"""Golden trace-digest regression tests.

Every perfbench scenario is replayed at smoke scale and its
:class:`~repro.sim.sanitizer.TraceDigest` is compared byte-for-byte
against the committed golden under ``tests/fabric/golden/digests.json``.
A divergence means the simulated event schedule changed: every pop,
its time, its tie-break sequence number, and its owning process.

That is sometimes deliberate — an optimisation that removes bookkeeping
events, a new subsystem in the hot path — and then the goldens are
regenerated explicitly with ``pytest tests/fabric --update-golden`` (or
``repro perfbench --update-golden`` for the full-scale entries).  Any
schedule change must arrive with regenerated goldens in the same commit,
which is what makes an *accidental* determinism regression impossible to
merge quietly.
"""

from __future__ import annotations

import pytest

from repro.experiments import perfbench

ALL_SCENARIOS = sorted(perfbench.SCENARIOS)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_smoke_digest_matches_golden(name: str, update_golden: bool) -> None:
    digest = perfbench.digest_scenario(name, scale="smoke")
    key = perfbench.golden_key(name, "smoke")
    goldens = perfbench.load_goldens()
    if update_golden:
        goldens[key] = digest
        perfbench.save_goldens(goldens)
        return
    assert key in goldens, (
        f"no committed golden for {key}; generate one deliberately with "
        f"pytest tests/fabric --update-golden")
    assert digest == goldens[key], (
        f"trace digest for {key} diverged from the committed golden.\n"
        f"  expected {goldens[key]}\n"
        f"  observed {digest}\n"
        f"The simulated event schedule changed.  If that is deliberate, "
        f"regenerate the goldens with pytest tests/fabric --update-golden "
        f"and repro perfbench --update-golden, and say so in the commit.")


def test_goldens_cover_both_scales_of_every_scenario() -> None:
    """The goldens file must stay complete: 2 scales x every scenario."""
    goldens = perfbench.load_goldens()
    expected = {perfbench.golden_key(name, scale)
                for name in perfbench.SCENARIOS
                for scale in ("full", "smoke")}
    missing = expected - set(goldens)
    assert not missing, (
        f"golden digests missing for {sorted(missing)}; regenerate with "
        f"repro perfbench --update-golden (full) and "
        f"pytest tests/fabric --update-golden (smoke)")
    stray = set(goldens) - expected
    assert not stray, f"stale golden entries for unknown scenarios: {sorted(stray)}"


def test_same_seed_same_digest() -> None:
    """The digest itself is reproducible: two runs, one schedule."""
    name = perfbench.REFERENCE_SCENARIO
    first = perfbench.digest_scenario(name, scale="smoke")
    second = perfbench.digest_scenario(name, scale="smoke")
    assert first == second


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_tracing_enabled_digest_matches_golden(name: str) -> None:
    """Observability is schedule-neutral: tracing must not move the golden.

    Runs the scenario with the tracer and resource monitors attached,
    checkpointed between run slices at ``repro trace``'s interval, and
    demands the bit-identical committed digest.  If this fails, some
    instrumentation path scheduled an event, consumed randomness, or
    reordered the heap.
    """
    digest = perfbench.digest_scenario(name, scale="smoke", observe=True)
    goldens = perfbench.load_goldens()
    key = perfbench.golden_key(name, "smoke")
    assert key in goldens
    assert digest == goldens[key], (
        f"tracing-enabled digest for {key} diverged from the golden: the "
        f"observability layer perturbed the schedule")
