"""Analytical cross-checks: the closed-form phase model and its planner.

The simulator's saturation points and latency distributions should be
predictable from the cost model alone; this package derives them so
tests (and users) can check that the simulation agrees with
first-principles queueing arguments, in the spirit of the SRN modelling
work the paper cites as related work [18].

The stochastic phase model (:class:`PhaseModel`) composes the full
execute–order–validate pipeline from two-moment queueing stations —
per-channel latency *distributions* (p50/p95/p99), station-by-station
utilization and capacity, the system capacity with cross-channel
resource sharing, and the bottleneck station — calibrated straight off
the cost model (:class:`CostFit`).  :func:`plan_capacity` inverts it into
a deployment plan, and ``repro crossval`` keeps it honest against the
simulator.
"""

from repro.analysis.fit import CostFit, ServiceMoments
from repro.analysis.phase_model import (
    ChannelPrediction,
    PhaseLatency,
    PhaseModel,
    StationLoad,
    SystemPrediction,
    WaitDistribution,
)
from repro.analysis.planner import CapacityPlan, PlanOption, plan_capacity
from repro.analysis.queueing import (
    gg1_wait,
    mg1_wait,
    mgc_wait,
    mm1_wait,
    mmc_erlang_c,
    mmc_wait,
)
from repro.analysis.workload import (
    ChannelDemand,
    offered_rate,
    resolve_demands,
)

__all__ = [
    "CapacityPlan",
    "ChannelDemand",
    "ChannelPrediction",
    "CostFit",
    "PhaseLatency",
    "PhaseModel",
    "PlanOption",
    "ServiceMoments",
    "StationLoad",
    "SystemPrediction",
    "WaitDistribution",
    "gg1_wait",
    "mg1_wait",
    "mgc_wait",
    "mm1_wait",
    "mmc_erlang_c",
    "mmc_wait",
    "offered_rate",
    "plan_capacity",
    "resolve_demands",
]
