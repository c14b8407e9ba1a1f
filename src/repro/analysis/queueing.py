"""Elementary queueing formulas used by the analytic phase models.

Beyond the original M/M/1 and M/M/c helpers, this module carries the
two-moment approximations the stochastic phase model is built on:
Pollaczek–Khinchine for M/G/1 waits, Kingman's G/G/1 generalisation for
non-Poisson arrivals, and the Allen–Cunneen correction for M/G/c, all
parameterised by squared coefficients of variation (SCV).
"""

from __future__ import annotations

import math


def mm1_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean waiting time (excluding service) in an M/M/1 queue.

    Returns ``inf`` at or beyond saturation.
    """
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    rho = arrival_rate / service_rate
    if rho >= 1:
        return math.inf
    return rho / (service_rate - arrival_rate)


def mmc_erlang_c(arrival_rate: float, service_rate: float,
                 servers: int) -> float:
    """Erlang-C probability that an arrival must wait in M/M/c.

    Computed through the iterative Erlang-B recurrence
    ``B(k) = a B(k-1) / (k + a B(k-1))`` followed by the standard B-to-C
    conversion.  The recurrence works in ratios, so unlike the textbook
    ``a**c / c!`` sum it neither overflows nor cancels at large server
    counts — 100-peer scale-out topologies are routine inputs.
    """
    if servers < 1:
        raise ValueError("need at least one server")
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    offered = arrival_rate / service_rate
    rho = offered / servers
    if rho >= 1:
        return 1.0
    if offered == 0:
        return 0.0
    blocking = 1.0  # Erlang-B with zero servers
    for k in range(1, servers + 1):
        blocking = offered * blocking / (k + offered * blocking)
    return blocking / (1.0 - rho * (1.0 - blocking))


def mmc_wait(arrival_rate: float, service_rate: float,
             servers: int) -> float:
    """Mean waiting time (excluding service) in an M/M/c queue."""
    offered = arrival_rate / service_rate
    if offered / servers >= 1:
        return math.inf
    wait_probability = mmc_erlang_c(arrival_rate, service_rate, servers)
    return wait_probability / (servers * service_rate - arrival_rate)


def mg1_wait(arrival_rate: float, service_mean: float,
             service_scv: float = 0.0) -> float:
    """Mean M/G/1 wait (Pollaczek–Khinchine), from mean service and SCV.

    ``service_scv`` is Var[S] / E[S]^2: 0 for deterministic service, 1 for
    exponential.  Returns ``inf`` at or beyond saturation.
    """
    if service_mean <= 0:
        raise ValueError("service mean must be positive")
    if service_scv < 0:
        raise ValueError("service SCV must be >= 0")
    rho = arrival_rate * service_mean
    if rho >= 1:
        return math.inf
    return rho * service_mean * (1.0 + service_scv) / (2.0 * (1.0 - rho))


def gg1_wait(arrival_rate: float, arrival_scv: float,
             service_mean: float, service_scv: float) -> float:
    """Mean G/G/1 wait (Kingman), from arrival and service SCVs.

    ``rho * E[S] * (ca2 + cs2) / (2 * (1 - rho))`` with ``ca2`` the SCV of
    the inter-arrival gap: Poisson arrivals (``ca2 = 1``) give
    :func:`mg1_wait`, regular ones queue less.  Returns ``inf`` at or
    beyond saturation.
    """
    if service_mean <= 0:
        raise ValueError("service mean must be positive")
    if arrival_scv < 0 or service_scv < 0:
        raise ValueError("arrival and service SCV must be >= 0")
    rho = arrival_rate * service_mean
    if rho >= 1:
        return math.inf
    return (rho * service_mean * (arrival_scv + service_scv)
            / (2.0 * (1.0 - rho)))


def mgc_wait(arrival_rate: float, service_mean: float,
             service_scv: float, servers: int) -> float:
    """Mean M/G/c wait via the Allen–Cunneen approximation.

    Scales the exact M/M/c wait by ``(1 + SCV) / 2`` (Poisson arrivals, so
    the arrival SCV term is 1).  Exact for c = 1 (reduces to
    Pollaczek–Khinchine) and for exponential service at any c.
    """
    if servers < 1:
        raise ValueError("need at least one server")
    if service_mean <= 0:
        raise ValueError("service mean must be positive")
    if arrival_rate * service_mean / servers >= 1:
        return math.inf
    base = mmc_wait(arrival_rate, 1.0 / service_mean, servers)
    return base * (1.0 + service_scv) / 2.0
