"""Tests for the queueing formulas."""

import math

import pytest

from repro.analysis import mm1_wait, mmc_erlang_c, mmc_wait


def test_mm1_wait_known_value():
    # rho = 0.5: W_q = rho / (mu - lambda) = 0.5 / 5 = 0.1
    assert mm1_wait(5, 10) == pytest.approx(0.1)


def test_mm1_wait_saturation_is_infinite():
    assert mm1_wait(10, 10) == math.inf
    assert mm1_wait(11, 10) == math.inf


def test_mm1_requires_positive_service_rate():
    with pytest.raises(ValueError):
        mm1_wait(1, 0)


def test_erlang_c_single_server_equals_rho():
    # For c=1, the Erlang-C waiting probability equals rho.
    assert mmc_erlang_c(3, 10, 1) == pytest.approx(0.3)


def test_erlang_c_bounds():
    p = mmc_erlang_c(15, 10, 2)
    assert 0 < p < 1
    assert mmc_erlang_c(20, 10, 2) == 1.0


def test_erlang_c_validation():
    with pytest.raises(ValueError):
        mmc_erlang_c(1, 1, 0)
    with pytest.raises(ValueError):
        mmc_erlang_c(1, 0, 1)


def test_mmc_wait_decreases_with_servers():
    single = mmc_wait(8, 10, 1)
    double = mmc_wait(8, 10, 2)
    assert double < single


def test_mmc_wait_saturation():
    assert mmc_wait(20, 10, 2) == math.inf


def test_mmc_reduces_to_mm1():
    assert mmc_wait(5, 10, 1) == pytest.approx(mm1_wait(5, 10))


def test_mg1_with_scv_one_reduces_to_mm1():
    from repro.analysis import mg1_wait

    assert mg1_wait(5, 0.1, service_scv=1.0) == pytest.approx(mm1_wait(5, 10))


def test_mg1_deterministic_halves_exponential_wait():
    from repro.analysis import mg1_wait

    exponential = mg1_wait(5, 0.1, service_scv=1.0)
    deterministic = mg1_wait(5, 0.1, service_scv=0.0)
    assert deterministic == pytest.approx(exponential / 2)


def test_mg1_saturation_is_infinite():
    from repro.analysis import mg1_wait

    assert mg1_wait(10, 0.1, service_scv=1.0) == math.inf
    assert mg1_wait(12, 0.1, service_scv=0.5) == math.inf


def test_gg1_with_poisson_arrivals_is_mg1():
    from repro.analysis import gg1_wait, mg1_wait

    assert gg1_wait(5, 1.0, 0.1, 0.4) == mg1_wait(5, 0.1, service_scv=0.4)


def test_gg1_regular_arrivals_queue_less():
    from repro.analysis import gg1_wait

    # Kingman scales the wait by (ca2 + cs2) / 2: deterministic arrivals
    # into deterministic service never queue.
    assert gg1_wait(5, 0.01, 0.1, 0.0) == pytest.approx(
        gg1_wait(5, 1.0, 0.1, 0.0) * 0.01)
    assert gg1_wait(5, 0.0, 0.1, 0.0) == 0.0
    assert gg1_wait(10, 0.01, 0.1, 0.0) == math.inf
    with pytest.raises(ValueError):
        gg1_wait(5, -0.1, 0.1, 0.0)


def test_mgc_single_server_reduces_to_mg1():
    from repro.analysis import mg1_wait, mgc_wait

    assert mgc_wait(5, 0.1, 0.4, 1) == pytest.approx(
        mg1_wait(5, 0.1, service_scv=0.4))


def test_mgc_with_scv_one_reduces_to_mmc():
    from repro.analysis import mgc_wait

    assert mgc_wait(15, 0.1, 1.0, 2) == pytest.approx(
        mmc_wait(15, 10, 2))


def test_erlang_c_large_server_count_no_overflow():
    # The naive factorial formulation overflows float range near c ~ 170;
    # the iterative Erlang-B recurrence must stay finite and in [0, 1].
    p = mmc_erlang_c(450, 1, 500)
    assert 0 <= p <= 1
    assert math.isfinite(p)
    # Heavily loaded but stable large system: waiting probability near 1.
    assert mmc_erlang_c(499, 1, 500) > 0.5
    # Lightly loaded large system: essentially never waits.
    assert mmc_erlang_c(50, 1, 500) < 1e-6


def test_mmc_wait_large_server_count():
    wait = mmc_wait(450, 1, 500)
    assert 0 < wait < math.inf
