"""ns/op timings of single-layer primitives, called through public APIs.

Inputs are fixed (independent of the workload seed) except the MVCC
check, which replays a block recorded by the workload's own run.  Each
figure is the median over several timed batches.
"""

from __future__ import annotations

import random
import statistics
import time
import typing

from repro.common.types import ValidationCode
from repro.fabric.network import FabricNetwork
from repro.ledger.ledger import Ledger
from repro.msp import MSP, CertificateAuthority, Role
from repro.peer.validator import check_mvcc
from repro.sim.core import Simulation
from repro.sim.resources import Resource, Store
from repro.sim.scheduler import CalendarQueue

#: Timed batches per primitive; the median batch is reported.
BATCHES = 7
#: Operations per batch of the kernel primitives.
KERNEL_OPS = 20_000
#: Signatures verified per batch.
VERIFY_OPS = 4_000
#: ``check_mvcc`` calls per batch.
MVCC_REPEATS = 200


def _median_ns(batch: typing.Callable[[], int]) -> float:
    """Median ns per operation; ``batch`` runs once and returns its op count."""
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter_ns()
        ops = batch()
        samples.append((time.perf_counter_ns() - start) / ops)
    return statistics.median(samples)


def calendar_push_pop() -> float:
    """One push plus one pop, over a mix of near and far entry times."""
    rng = random.Random(7)
    entries = [(rng.expovariate(200.0), seq, None)
               for seq in range(KERNEL_OPS)]

    def batch() -> int:
        queue = CalendarQueue()
        for entry in entries:
            queue.push(entry)
        for _ in range(KERNEL_OPS):
            queue.pop()
        return KERNEL_OPS

    return _median_ns(batch)


def resource_uncontended() -> float:
    """request() + release() on an idle single-slot resource."""

    def batch() -> int:
        resource = Resource(Simulation(), capacity=1)
        for _ in range(KERNEL_OPS):
            resource.release(resource.request())
        return KERNEL_OPS

    return _median_ns(batch)


def resource_contended() -> float:
    """request() that queues, then the release() that grants it."""

    def batch() -> int:
        resource = Resource(Simulation(), capacity=1)
        holder = resource.request()
        for _ in range(KERNEL_OPS):
            waiter = resource.request()
            resource.release(holder)
            holder = waiter
        return KERNEL_OPS

    return _median_ns(batch)


def store_put_get() -> float:
    """put() of an item, then the get() that takes it."""

    def batch() -> int:
        store = Store(Simulation())
        for item in range(KERNEL_OPS):
            store.put(item)
            store.get()
        return KERNEL_OPS

    return _median_ns(batch)


def msp_verify() -> float:
    """verify_signature() of a valid signature never verified before.

    Every batch checks its own messages, so each call misses the
    provider's verdict memo and does the full HMAC verification.
    """
    ca = CertificateAuthority("Org1")
    identity = ca.enroll("peer0", Role.PEER)
    msp = MSP([ca])
    batches = iter(range(BATCHES))

    def batch() -> int:
        offset = next(batches) * VERIFY_OPS
        messages = [f"proposal-{offset + index}".encode()
                    for index in range(VERIFY_OPS)]
        signatures = [identity.sign(message) for message in messages]
        verify, msp_id = msp.verify_signature, identity.msp_id
        start = time.perf_counter_ns()
        for signature, message in zip(signatures, messages):
            if not verify(signature, message, msp_id):
                raise AssertionError("valid signature rejected")
        return time.perf_counter_ns() - start

    return statistics.median(batch() / VERIFY_OPS for _ in range(BATCHES))


def check_mvcc_block(network: FabricNetwork) -> float:
    """check_mvcc() on the middle block of the run's first channel.

    The block is re-checked against a fresh ledger holding every earlier
    block, i.e. the state the validator saw when it first checked it.
    """
    channel = network.channel_names[0]
    source = network.peers[0].ledger_for(channel)
    middle = source.height // 2
    ledger = Ledger(channel)  # starts at height 1, past the genesis block
    for number in range(1, middle):
        ledger.commit_block(source.blocks.get(number))
    block = source.blocks.get(middle)
    flags = [ValidationCode.VALID] * len(block.transactions)

    def batch() -> int:
        for _ in range(MVCC_REPEATS):
            check_mvcc(ledger, block, flags)
        return MVCC_REPEATS

    return _median_ns(batch)


def measure_all(network: FabricNetwork) -> dict[str, float]:
    return {
        "sim.calendar_push_pop_ns": calendar_push_pop(),
        "sim.resource_uncontended_ns": resource_uncontended(),
        "sim.resource_contended_ns": resource_contended(),
        "sim.store_put_get_ns": store_put_get(),
        "msp.verify_ns": msp_verify(),
        "ledger.check_mvcc_ns": check_mvcc_block(network),
    }
