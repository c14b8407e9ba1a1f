"""Tests for figure sweeps and the cross-figure point cache."""

from repro.experiments.figures import (
    DURATIONS,
    RATE_GRIDS,
    _cached_point,
    run_fig2_fig3,
    run_fig4_fig5,
)
from repro.experiments.runner import SweepPoint


def test_rate_grids_cover_saturation():
    # The top rate must exceed both the validate cap (~305) and the client
    # fleet capacity (~500) so Figs. 3/6/7 show the latency explosion.
    assert max(RATE_GRIDS["quick"]) > 500
    assert max(RATE_GRIDS["full"]) > 500
    assert min(RATE_GRIDS["full"]) <= 100


def test_sweep_points_are_cached_across_figures(monkeypatch):
    # One short rate keeps this a test of the cache, not of the sweep;
    # the paper-figure sweeps run in benchmarks/.
    monkeypatch.setitem(RATE_GRIDS, "quick", [100.0])
    monkeypatch.setitem(DURATIONS, "quick", 4.0)
    _cached_point.cache_clear()
    run_fig2_fig3(mode="quick", seed=99)
    first_info = _cached_point.cache_info()
    assert first_info.misses > 0
    run_fig4_fig5(mode="quick", seed=99)
    second_info = _cached_point.cache_info()
    # Figs. 4/5 reuse the identical (orderer, policy, rate) runs.
    assert second_info.misses == first_info.misses
    assert second_info.hits > first_info.hits
    _cached_point.cache_clear()


def test_sweep_point_properties():
    point = _cached_point("solo", "OR3", 30.0, 6.0, 7)
    assert isinstance(point, SweepPoint)
    assert point.throughput == point.metrics.overall_throughput
    assert point.latency == point.metrics.overall_latency
    _cached_point.cache_clear()


def test_durations_quick_below_full():
    assert DURATIONS["quick"] < DURATIONS["full"]
