"""Workload structure as the analytic models see it.

The models read the simulator's own load plan
(:func:`repro.common.config.plan_load`): one slice per submitting client,
classic or cohort, with its channel, rate and transaction shape.  Summing
the plan per channel gives, from the same config objects the simulator
consumes:

- per-channel aggregate arrival rates (tx/s);
- per-channel counts of loaded client (or cohort) processes, which bound
  the client stage's service pool;
- the number of endorsements a satisfying envelope carries per channel.

The model and the simulator therefore cannot disagree on how a
configuration turns into load.
"""

from __future__ import annotations

import dataclasses
import math

from repro.chaincode.policy import EndorsementPolicy, channel_policies
from repro.common.config import (
    LoadSlice,
    TopologyConfig,
    WorkloadConfig,
    plan_load,
)


@dataclasses.dataclass(frozen=True)
class ChannelDemand:
    """One channel's resolved offered load and endorsement plan."""

    channel: str
    #: Aggregate arrival rate on this channel (tx/s).
    rate: float
    #: Client (or cohort) processes generating this channel's load.
    clients: int
    #: Resolved endorsement policy for the channel.
    policy: EndorsementPolicy
    #: Transaction shape: "unique" fresh-key writes or "conflict" RMWs.
    workload: str = "unique"

    @property
    def endorsements(self) -> int:
        """Endorsements a satisfying envelope carries (minimal plan)."""
        return self.policy.min_required()

    @property
    def targets(self) -> int:
        """Endorsing peers the channel's proposals are spread across."""
        return len(self.policy.principals())


def resolve_demands(topology: TopologyConfig,
                    workload: WorkloadConfig,
                    workload_kind: str = "unique",
                    plan: list[LoadSlice] | None = None,
                    ) -> list[ChannelDemand]:
    """Per-channel demands: the simulator's load plan summed per channel.

    ``plan`` is ``plan_load(topology, workload, workload_kind)`` built by
    the caller, which then vouches for the workload; the topology is
    validated alone.  The capacity planner builds one per channel count.
    """
    if plan is None:
        topology.validate(workload)
        plan = plan_load(topology, workload, workload_kind)
    else:
        topology.validate()
    demands = []
    for channel, policy in channel_policies(topology).items():
        loads = [load for load in plan if load.channel == channel]
        # A per-channel mix may leave an idle channel without clients;
        # it keeps its mix's shape.
        shape = (loads[0].workload if loads
                 else (workload.per_channel or {})[channel].workload)
        demands.append(ChannelDemand(
            channel=channel,
            rate=math.fsum(load.rate for load in loads),
            clients=sum(1 for load in loads if load.rate > 0),
            policy=policy,
            workload=shape))
    return demands


def offered_rate(demands: list[ChannelDemand]) -> float:
    """Total offered load across all channels (tx/s)."""
    return sum(demand.rate for demand in demands)
