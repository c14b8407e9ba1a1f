"""Client SDK and workload generation (the paper's §IV.A design).

The client mirrors fabric-sdk-node driving Fabric asynchronously: build and
sign a proposal, send it to the peers selected by the endorsement policy,
collect and check the responses, assemble the envelope, broadcast it to an
ordering service node, and wait for the commit event from the client's
anchor peer — rejecting the transaction if the ordering response does not
arrive within 3 seconds.

The workload generator follows the paper's bottleneck-avoidance principles:
several client processes run simultaneously (one per endorsing peer, each
receiving a fraction of the aggregate arrival rate, as in Fig. 1),
transactions are invoked asynchronously without waiting for previous
responses, and each client issues many transactions (MSP setup is paid once).
It drives the clients of :func:`repro.common.config.plan_load`, the one
statement of the load rule: classic clients, or aggregated user cohorts
that carry millions of virtual users on O(cohorts) processes.
"""

from repro.client.sdk import ClientNode
from repro.client.workload import WorkloadGenerator

__all__ = ["ClientNode", "WorkloadGenerator"]
