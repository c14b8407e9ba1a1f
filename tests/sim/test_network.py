"""Tests for the simulated LAN."""

import pytest

from repro.sim import Message, Network, RngRegistry, Simulation
from repro.sim.network import NodeDownError


def make_network(latency=0.001, bandwidth=1e9, jitter=0.0):
    sim = Simulation()
    network = Network(sim, RngRegistry(seed=7), default_latency=latency,
                      default_bandwidth=bandwidth, latency_jitter=jitter)
    for name in ["a", "b", "c"]:
        network.add_node(name)
    return sim, network


def test_message_delivered_with_latency():
    sim, network = make_network(latency=0.002, bandwidth=1e12)
    received = []

    def receiver(sim, network):
        message = yield network.receive("b")
        received.append((message.payload, sim.now))

    sim.process(receiver(sim, network))
    network.send(Message("a", "b", "ping", payload=123, size=1))
    sim.run()
    assert received[0][0] == 123
    assert received[0][1] == pytest.approx(0.002, rel=0.01)


def test_bandwidth_serialization_delay():
    # 1 MB over 1 MB/s takes 1 second on the wire.
    sim, network = make_network(latency=0.0, bandwidth=1_000_000)
    received = []

    def receiver(sim, network):
        message = yield network.receive("b")
        received.append(sim.now)

    sim.process(receiver(sim, network))
    network.send(Message("a", "b", "blob", payload=None, size=1_000_000))
    sim.run()
    assert received == [pytest.approx(1.0)]


def test_messages_on_same_link_serialize_fifo():
    sim, network = make_network(latency=0.0, bandwidth=1_000_000)
    received = []

    def receiver(sim, network):
        for _ in range(2):
            message = yield network.receive("b")
            received.append((message.payload, sim.now))

    sim.process(receiver(sim, network))
    network.send(Message("a", "b", "m", payload=1, size=500_000))
    network.send(Message("a", "b", "m", payload=2, size=500_000))
    sim.run()
    assert received == [(1, pytest.approx(0.5)), (2, pytest.approx(1.0))]


def test_different_senders_do_not_serialize():
    sim, network = make_network(latency=0.0, bandwidth=1_000_000)
    received = []

    def receiver(sim, network):
        for _ in range(2):
            message = yield network.receive("c")
            received.append(sim.now)

    sim.process(receiver(sim, network))
    network.send(Message("a", "c", "m", payload=1, size=1_000_000))
    network.send(Message("b", "c", "m", payload=2, size=1_000_000))
    sim.run()
    assert received == [pytest.approx(1.0), pytest.approx(1.0)]


def test_same_sender_fanout_serializes_at_the_nic():
    # One machine fanning out to two destinations shares its single NIC:
    # the second message leaves only after the first finished transmitting,
    # and the burst hands every slot back.
    sim, network = make_network(latency=0.0, bandwidth=1_000_000)
    received = {}

    def receiver(sim, network, name):
        for _ in range(2 if name == "b" else 1):
            message = yield network.receive(name)
            received[message.payload] = sim.now

    sim.process(receiver(sim, network, "b"))
    sim.process(receiver(sim, network, "c"))
    nic = network.nic("a")
    network.send(Message("a", "b", "m", payload=1, size=1_000_000))
    network.send(Message("a", "c", "m", payload=2, size=1_000_000))
    network.send(Message("a", "b", "m", payload=3, size=1_000_000))
    assert (nic.count, nic.queue_length) == (1, 2)
    sim.run()
    assert received == {1: pytest.approx(1.0), 2: pytest.approx(2.0),
                        3: pytest.approx(3.0)}
    assert (nic.count, nic.queue_length) == (0, 0)


def test_unknown_destination_rejected():
    sim, network = make_network()
    with pytest.raises(KeyError):
        network.send(Message("a", "nope", "m", payload=None))


def test_unknown_source_rejected():
    sim, network = make_network()
    with pytest.raises(KeyError):
        network.send(Message("nope", "a", "m", payload=None))


def test_crashed_destination_drops_messages():
    sim, network = make_network()
    network.crash_node("b")
    network.send(Message("a", "b", "m", payload=None, size=10))
    sim.run()
    assert len(network.mailbox("b")) == 0
    assert network.link("a", "b").messages_dropped == 1


def test_crashed_source_cannot_send():
    sim, network = make_network()
    network.crash_node("a")
    with pytest.raises(NodeDownError):
        network.send(Message("a", "b", "m", payload=None))


def test_restore_node_resumes_delivery():
    sim, network = make_network()
    network.crash_node("b")
    network.restore_node("b")
    network.send(Message("a", "b", "m", payload="back", size=10))
    sim.run()
    assert len(network.mailbox("b")) == 1


def test_message_crossing_crash_boundary_is_dropped():
    # A message in flight when the destination crashes must not arrive.
    sim, network = make_network(latency=1.0)
    network.send(Message("a", "b", "m", payload=None, size=10))

    def crasher(sim, network):
        yield sim.timeout(0.5)
        network.crash_node("b")

    sim.process(crasher(sim, network))
    sim.run()
    assert len(network.mailbox("b")) == 0


def test_link_stats_accumulate():
    sim, network = make_network()
    network.send(Message("a", "b", "m", payload=None, size=100))
    network.send(Message("a", "b", "m", payload=None, size=200))
    sim.run()
    link = network.link("a", "b")
    assert link.bytes_sent == 300
    assert link.messages_sent == 2


def test_jitter_is_deterministic_per_seed():
    def run_once():
        sim, network = make_network(latency=0.01, jitter=0.5)
        times = []

        def receiver(sim, network):
            for _ in range(5):
                yield network.receive("b")
                times.append(sim.now)

        sim.process(receiver(sim, network))
        for _ in range(5):
            network.send(Message("a", "b", "m", payload=None, size=1))
        sim.run()
        return times

    assert run_once() == run_once()


def test_set_link_overrides_parameters():
    sim, network = make_network(latency=0.001)
    network.set_link("a", "b", latency=0.5, bandwidth=1e9)
    received = []

    def receiver(sim, network):
        yield network.receive("b")
        received.append(sim.now)

    sim.process(receiver(sim, network))
    network.send(Message("a", "b", "m", payload=None, size=1))
    sim.run()
    assert received == [pytest.approx(0.5, rel=0.01)]


def test_link_validation():
    sim = Simulation()
    from repro.sim.network import Link
    with pytest.raises(ValueError):
        Link(sim, latency=-1, bandwidth=1)
    with pytest.raises(ValueError):
        Link(sim, latency=0, bandwidth=0)
