"""Tests for FIFO resources and stores."""

import pytest

from repro.sim import Resource, Simulation, Store


def test_resource_capacity_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulation()
    resource = Resource(sim, capacity=2)
    first = resource.request()
    second = resource.request()
    third = resource.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert resource.count == 2
    assert resource.queue_length == 1


def test_release_wakes_fifo_order():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(sim, resource, name, hold):
        request = resource.request()
        try:
            yield request
            order.append(("start", name, sim.now))
            yield sim.timeout(hold)
        finally:
            resource.release(request)

    sim.process(worker(sim, resource, "a", 2))
    sim.process(worker(sim, resource, "b", 1))
    sim.process(worker(sim, resource, "c", 1))
    sim.run()
    assert order == [("start", "a", 0), ("start", "b", 2), ("start", "c", 3)]


def test_use_helper_holds_and_releases():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    finish_times = []

    def worker(sim, resource):
        yield from resource.use(3)
        finish_times.append(sim.now)

    sim.process(worker(sim, resource))
    sim.process(worker(sim, resource))
    sim.run()
    assert finish_times == [3, 6]
    assert resource.count == 0


def test_use_releases_on_interrupt():
    from repro.sim import Interrupt

    sim = Simulation()
    resource = Resource(sim, capacity=1)

    def holder(sim, resource):
        try:
            yield from resource.use(100)
        except Interrupt:
            pass

    def interrupter(sim, victim):
        yield sim.timeout(1)
        victim.interrupt()

    victim = sim.process(holder(sim, resource))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert resource.count == 0


def test_release_of_queued_request_cancels_it():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    # No yields between request and release: nothing can interrupt this
    # test body, and it exists precisely to exercise raw cancel calls.
    held = resource.request()  # simlint: disable=SL011
    queued = resource.request()
    resource.release(queued)
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.count == 0


def test_release_of_unknown_request_is_an_error():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    request = resource.request()
    resource.release(request)
    with pytest.raises(RuntimeError):
        resource.release(request)


def test_resource_utilization_throughput():
    # c servers, deterministic service time s: n jobs finish at ceil(n/c)*s.
    sim = Simulation()
    resource = Resource(sim, capacity=4)
    done = []

    def job(sim, resource):
        yield from resource.use(0.02)
        done.append(sim.now)

    for _ in range(10):
        sim.process(job(sim, resource))
    sim.run()
    assert done[-1] == pytest.approx(0.06)
    assert done[3] == pytest.approx(0.02)


def test_store_put_then_get():
    sim = Simulation()
    store = Store(sim)
    store.put("x")
    got = []

    def getter(sim, store):
        item = yield store.get()
        got.append(item)

    sim.process(getter(sim, store))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulation()
    store = Store(sim)
    got = []

    def getter(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def putter(sim, store):
        yield sim.timeout(5)
        store.put("late")

    sim.process(getter(sim, store))
    sim.process(putter(sim, store))
    sim.run()
    assert got == [("late", 5)]


def test_store_fifo_items_and_getters():
    sim = Simulation()
    store = Store(sim)
    got = []

    def getter(sim, store, name):
        item = yield store.get()
        got.append((name, item))

    sim.process(getter(sim, store, "g1"))
    sim.process(getter(sim, store, "g2"))

    def putter(sim, store):
        yield sim.timeout(1)
        store.put("first")
        store.put("second")

    sim.process(putter(sim, store))
    sim.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_len_and_drain():
    sim = Simulation()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.drain() == [1, 2]
    assert len(store) == 0


def test_store_waiting_getters_count():
    sim = Simulation()
    store = Store(sim)

    def getter(sim, store):
        yield store.get()

    sim.process(getter(sim, store))
    sim.run()
    assert store.waiting_getters == 1
    store.put("unblock")
    sim.run()
    assert store.waiting_getters == 0


class RecordingMonitor:
    """Minimal monitor double recording kernel callbacks."""

    def __init__(self):
        self.states = []
        self.grants = []
        self.releases = []
        self.waits = []
        self.cancels = 0

    def on_state(self, busy, queue):
        self.states.append((busy, queue))

    def on_grant(self, wait):
        self.grants.append(wait)

    def on_release(self, service):
        self.releases.append(service)

    def on_cancel(self):
        self.cancels += 1

    def note_wait(self, wait):
        self.waits.append(wait)


def test_resource_monitor_hooks_fire_on_state_changes():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = RecordingMonitor()
    resource.monitor = monitor

    def worker(hold):
        yield from resource.use(hold)

    sim.process(worker(2.0))
    sim.process(worker(1.0))
    sim.run()
    # grant(0) for the first, queue for the second, grant(2.0) at release.
    assert monitor.grants == [0.0, 2.0]
    assert (1, 1) in monitor.states          # one busy, one queued
    assert monitor.states[-1] == (0, 0)      # all released at the end


def test_store_monitor_hooks_fire_on_put_get_drain():
    sim = Simulation()
    store = Store(sim, name="mailbox")
    monitor = RecordingMonitor()
    store.monitor = monitor
    store.put("a")
    store.put("b")
    store.get()
    store.drain()
    # (getters, items) after each operation.
    assert monitor.states == [(0, 1), (0, 2), (0, 1), (0, 0)]


def test_unmonitored_resources_behave_identically():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    store = Store(sim)
    assert resource.monitor is None and store.monitor is None
    done = []

    def worker():
        yield from resource.use(1.0)
        store.put("x")
        item = yield store.get()
        done.append(item)

    sim.process(worker())
    sim.run()
    assert done == ["x"]
    assert sim.now == 1.0


def test_claim_takes_a_free_slot_without_scheduling():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    held = resource.claim()
    try:
        assert held.triggered and resource.count == 1
        sim.run()
        assert sim.events_processed == 0  # a granted claim pushes nothing
    finally:
        resource.release(held)
    assert resource.count == 0


def test_claim_queues_fifo_and_reports_the_wait():
    sim = Simulation()
    resource = Resource(sim, capacity=1, name="cpu")
    monitor = RecordingMonitor()
    resource.monitor = monitor
    order = []

    def worker(name, hold):
        held = resource.claim()
        try:
            if not held.triggered:
                yield held
                resource.report_wait(held)
            order.append((name, sim.now))
            yield sim.timeout(hold)
        finally:
            resource.release(held)

    for name, hold in (("a", 2.0), ("b", 1.0), ("c", 1.0)):
        sim.process(worker(name, hold))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]
    assert monitor.grants == [0.0, 2.0, 3.0]
    assert monitor.waits == [2.0, 3.0]
    assert monitor.releases == [2.0, 1.0, 1.0]
    assert monitor.states[-1] == (0, 0)
