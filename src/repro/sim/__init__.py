"""Discrete-event simulation kernel.

This package is the substrate on which the simulated Hyperledger Fabric
cluster runs.  It provides a small, deterministic, generator-based
discrete-event simulator in the style of SimPy, written from scratch:

- :class:`~repro.sim.core.Simulation`: the event loop and simulated clock.
- :class:`~repro.sim.core.Process`: a coroutine (generator) driven by the
  loop; yields events and is resumed when they fire.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf` / :class:`~repro.sim.events.AllOf`.
- :class:`~repro.sim.resources.Resource`: FIFO server pool (CPU cores,
  endorsement slots, validator workers).
- :class:`~repro.sim.resources.Store`: unbounded FIFO message queue.
- :class:`~repro.sim.network.Network`: point-to-point links with latency and
  bandwidth serialization, used for all inter-node traffic.
- :class:`~repro.sim.rng.RngRegistry`: named, independently seeded random
  streams so experiments are reproducible and streams are decoupled;
  :class:`~repro.sim.rng.BatchSampler` is the vectorised (but
  bit-identical) view of a high-rate stream.
- :class:`~repro.sim.scheduler.CalendarQueue`: the timed tiers of the
  event scheduler; due-now events sit in a FIFO ring beside it, and
  :meth:`Simulation.run <repro.sim.core.Simulation.run>` pops both in
  binary-heap ``(time, seq)`` order.

Everything is deterministic given a seed: the event scheduler breaks ties
by insertion order, and all randomness flows through named RNG streams.
"""

from repro.sim.core import Process, Simulation
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.network import Link, Message, Network
from repro.sim.resources import Resource, Store
from repro.sim.rng import BatchSampler, RngRegistry
from repro.sim.scheduler import CalendarQueue
from repro.sim.sanitizer import (
    DeterminismReport,
    TraceDigest,
    digest_run,
    run_twice_and_diff,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BatchSampler",
    "CalendarQueue",
    "DeterminismReport",
    "Event",
    "Interrupt",
    "Link",
    "Message",
    "Network",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulation",
    "Store",
    "Timeout",
    "TraceDigest",
    "digest_run",
    "run_twice_and_diff",
]
