"""The bundle of simulation services every node is constructed from."""

from __future__ import annotations

import dataclasses
import typing

from repro.obs.tracer import NULL_TRACER
from repro.runtime.costs import CostModel
from repro.sim.core import Simulation
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsCollector
    from repro.obs.tracer import NullTracer, Tracer


@dataclasses.dataclass
class NetworkContext:
    """Simulation, network, randomness, costs, and metrics in one handle."""

    sim: Simulation
    network: Network
    rng: RngRegistry
    costs: CostModel
    metrics: "MetricsCollector"
    #: Span tracer; the shared no-op :data:`~repro.obs.tracer.NULL_TRACER`
    #: unless an observability layer installs a recording one.
    tracer: "Tracer | NullTracer" = NULL_TRACER

    @classmethod
    def create(cls, seed: int = 0, costs: CostModel | None = None,
               latency: float = 0.00025, bandwidth: float = 125_000_000.0,
               jitter: float = 0.2) -> "NetworkContext":
        """Build a fresh context with paper-default network parameters."""
        from repro.metrics.collector import MetricsCollector

        sim = Simulation()
        rng = RngRegistry(seed=seed)
        network = Network(sim, rng, default_latency=latency,
                          default_bandwidth=bandwidth, latency_jitter=jitter)
        cost_model = costs or CostModel()
        cost_model.validate()
        return cls(sim=sim, network=network, rng=rng, costs=cost_model,
                   metrics=MetricsCollector(sim))
