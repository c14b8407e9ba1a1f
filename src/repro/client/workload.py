"""Open-loop workload generation across multiple clients (§IV.A).

One driver runs the clients of a load plan
(:func:`~repro.common.config.plan_load`), one arrival process per loaded
client.  Arrivals are open-loop: a new transaction is invoked on schedule
whether or not earlier ones have completed, matching the paper's
asynchronous invocation.  Supported workloads:

- ``unique``  — every transaction writes a fresh key (the paper's 1-byte
  benchmark transaction; no read-write conflicts);
- ``conflict`` — read-modify-write over a shared key space with optional
  Zipf-like skew, producing MVCC invalidations (the §V money-transfer-style
  scenario).

Classic clients (Fig. 1) each carry their share of the offered rate, with
uniform or Poisson inter-arrivals staggered across the clients sharing a
rate pool.  Aggregated populations (Nguyen et al., arXiv:2107.09886) run
one *cohort* process per user slice instead: the superposition of N
independent Poisson(λ) streams is Poisson(Nλ), so one exponential draw
per arrival generates the open-loop traffic of the whole slice, and a
million users cost O(cohorts) kernel processes.  Each arrival is
attributed to a virtual user of the slice — uniformly, or Zipf-skewed —
and in conflict mode that user's home key turns user skew into key
contention.  Every transaction is tagged with its cohort, so
:meth:`~repro.metrics.collector.MetricsCollector.aggregate_by_cohort`
yields per-cohort metrics.

A slice with rate 0 is idle and gets no process: an idle per-channel mix
(e.g. a standby channel that only receives config blocks), a zero
aggregate rate, or a cohort without users.
"""

from __future__ import annotations

from repro.client.sdk import ClientNode
from repro.common.config import LoadSlice, WorkloadConfig
from repro.common.errors import ConfigurationError


class WorkloadGenerator:
    """Drives each client of a load plan at its slice's arrival rate."""

    def __init__(self, clients: list[ClientNode], plan: list[LoadSlice],
                 config: WorkloadConfig) -> None:
        if not clients or len(clients) != len(plan):
            raise ConfigurationError(
                "workload needs one client per load slice and at least "
                "one client (omit num_clients for one client per "
                "endorsing peer)")
        config.validate()
        self.clients = clients
        self.plan = plan
        self.config = config

    @property
    def transactions_started(self) -> int:
        return sum(client.submitted for client in self.clients)

    def start(self, at: float = 0.0) -> None:
        """Launch one open-loop arrival process per loaded client.

        Cohorts and uniform classic clients spawn in plan order; classic
        clients with per-channel mixes spawn channel by channel, in mix
        order.
        """
        pairs = list(zip(self.clients, self.plan))
        if self.config.population is not None:
            loop = self._cohort_loop
        else:
            loop = self._arrival_loop
            order = list(self.config.per_channel or ())
            if order:
                pairs.sort(key=lambda pair: order.index(pair[1].channel))
        for client, load in pairs:
            if load.rate > 0:
                client.sim.process(loop(client, load, at))

    def _arrival_loop(self, client: ClientNode, load: LoadSlice,
                      start_at: float):
        sim = client.sim
        registry = client.context.rng
        stream_name = f"workload.{client.name}"
        poisson = self.config.arrival_process == "poisson"
        unique = load.workload == "unique"
        # Vectorised arrivals: a "unique" workload never draws a key, so
        # the stream's only consumer is the poisson inter-arrival draw —
        # single-signature, safe to batch.  Conflict workloads interleave
        # key-pick draws on the same stream and must stay sequential (the
        # sampler's read-ahead would reorder them).
        if poisson and unique:
            sampler = registry.sampler(stream_name)
            rng = None
        else:
            sampler = None
            rng = registry.stream(stream_name)
        if start_at > sim.now:
            yield sim.timeout(max(0.0, start_at - sim.now))
        interval = 1.0 / load.rate
        end_time = start_at + self.config.duration
        # Stagger client start phases so aggregate arrivals are smooth.
        yield sim.timeout(interval * load.index / load.group_size)
        key_space = load.key_space
        skew = load.skew
        sequence = 0
        while sim.now < end_time:
            if unique:
                function = "write"
                args = [f"{client.name}-k{sequence}",
                        "x" * max(1, load.tx_size)]
            else:
                # Conflicting read-modify-write over a bounded key space.
                if skew > 0:
                    # Zipf-like via inverse-power transform of a uniform.
                    u = max(rng.random(), 1e-9)
                    key = int(key_space * (u ** (1.0 + skew))) % key_space
                else:
                    key = rng.randrange(key_space)
                function = "update"
                args = [f"acct{key}", f"{client.name}-{sequence}"]
            client.invoke(load.chaincode, function, args,
                          tx_size=load.tx_size)
            sequence += 1
            if sampler is not None:
                yield sim.timeout(sampler.expovariate(load.rate))
            elif poisson:
                yield sim.timeout(rng.expovariate(load.rate))
            else:
                yield sim.timeout(interval)

    def _cohort_loop(self, client: ClientNode, load: LoadSlice,
                     start_at: float):
        """Superposed-Poisson arrivals for one cohort's user slice."""
        sim = client.sim
        rng = client.context.rng.stream(f"population.{load.name}")
        if start_at > sim.now:
            yield sim.timeout(max(0.0, start_at - sim.now))
        end_time = start_at + self.config.duration
        users = load.users
        skew = load.skew
        sequence = 0
        while True:
            # Exponential inter-arrival of the superposed stream; drawing
            # *before* each arrival keeps the process memoryless from the
            # start (no deterministic arrival spike at t=start_at).
            yield sim.timeout(rng.expovariate(load.rate))
            if sim.now >= end_time:
                return
            # The virtual user behind this arrival; with skew, a hot
            # minority of users generates most of the traffic.
            if skew > 0:
                u = max(rng.random(), 1e-9)
                user = int(users * (u ** (1.0 + skew))) % users
            else:
                user = rng.randrange(users)
            user += load.user_base
            if load.workload == "unique":
                function = "write"
                args = [f"{load.name}-u{user}-k{sequence}",
                        "x" * max(1, load.tx_size)]
            else:
                # The user's home key inside the bounded key space, so
                # user-level skew turns directly into key contention.
                function = "update"
                args = [f"acct{user % load.key_space}",
                        f"u{user}-{sequence}"]
            client.invoke(load.chaincode, function, args,
                          tx_size=load.tx_size)
            sequence += 1
