"""Tests for the node base class: dispatch, crash, CPU."""

import pytest

from repro.common.errors import ConfigurationError
from repro.runtime.context import NetworkContext
from repro.runtime.node import NodeBase
from repro.sim.core import Process
from repro.sim.sanitizer import TraceDigest


def make_context():
    return NetworkContext.create(seed=3)


def make_node(context, name, cores=2):
    node = NodeBase(context, name, cores=cores)
    node.start()
    return node


def test_node_requires_name():
    with pytest.raises(ConfigurationError):
        NodeBase(make_context(), "")


def test_message_dispatch_to_handler():
    context = make_context()
    received = []
    a = make_node(context, "a")
    b = make_node(context, "b")

    def handler(message):
        received.append(message.payload)
        return
        yield

    b.on("ping", handler)
    a.send("b", "ping", {"x": 1})
    context.sim.run()
    assert received == [{"x": 1}]


def test_unknown_message_type_raises():
    context = make_context()
    a = make_node(context, "a")
    b = make_node(context, "b")
    a.send("b", "mystery", None)
    with pytest.raises(ConfigurationError, match="no handler"):
        context.sim.run()


def test_duplicate_handler_registration_rejected():
    context = make_context()
    node = make_node(context, "a")

    def handler(message):
        return
        yield

    node.on("ping", handler)
    with pytest.raises(ConfigurationError):
        node.on("ping", handler)


def test_crashed_node_ignores_messages():
    context = make_context()
    received = []
    a = make_node(context, "a")
    b = make_node(context, "b")

    def handler(message):
        received.append(message.payload)
        return
        yield

    b.on("ping", handler)
    b.crash()
    # In-flight sends from a live node to a crashed one are dropped by the
    # network layer.
    a.send("b", "ping", 1)
    context.sim.run()
    assert received == []


def test_crashed_node_send_is_silently_dropped():
    context = make_context()
    a = make_node(context, "a")
    make_node(context, "b")
    a.crash()
    a.send("b", "ping", 1)  # must not raise
    context.sim.run()


def test_recovered_node_receives_again():
    context = make_context()
    received = []
    a = make_node(context, "a")
    b = make_node(context, "b")

    def handler(message):
        received.append(message.payload)
        return
        yield

    b.on("ping", handler)
    b.crash()
    b.recover()
    a.send("b", "ping", 2)
    context.sim.run()
    assert received == [2]


def test_handlers_do_not_block_intake():
    # A slow handler must not delay the next message's handler start.
    context = make_context()
    starts = []
    a = make_node(context, "a")
    b = make_node(context, "b", cores=4)

    def slow_handler(message):
        starts.append(context.sim.now)
        yield context.sim.timeout(1.0)

    b.on("work", slow_handler)
    a.send("b", "work", 1)
    a.send("b", "work", 2)
    context.sim.run()
    assert len(starts) == 2
    assert starts[1] - starts[0] < 0.5


def test_compute_occupies_one_core():
    context = make_context()
    node = make_node(context, "a", cores=1)
    finish = []

    def worker():
        yield from node.compute(0.5)
        finish.append(context.sim.now)

    context.sim.process(worker())
    context.sim.process(worker())
    context.sim.run()
    assert finish == [pytest.approx(0.5), pytest.approx(1.0)]


def test_tls_cost_charged_per_message():
    context = make_context()
    assert context.costs.tls_per_message_cpu > 0
    done = []
    a = make_node(context, "a")
    b = make_node(context, "b")

    def handler(message):
        done.append(context.sim.now)
        return
        yield

    b.on("ping", handler)
    a.send("b", "ping", None, size=1)
    context.sim.run()
    assert done[0] >= context.costs.tls_per_message_cpu


def test_plain_handler_runs_once_the_tls_charge_ends():
    # No latency or jitter: each message arrives as it is sent, so a
    # handler starts exactly when its TLS charge ends.
    context = NetworkContext.create(seed=3, latency=0.0, jitter=0.0)
    tls = context.costs.tls_per_message_cpu
    a = make_node(context, "a")
    b = make_node(context, "b")
    seen = []

    def plain(message):
        seen.append(("plain", context.sim.now))

    def waiting(message):
        seen.append(("waiting starts", context.sim.now))
        yield context.sim.timeout(1.0)
        seen.append(("waiting ends", context.sim.now))

    b.on("plain", plain)
    b.on("waiting", waiting)
    a.send("b", "waiting", None, size=1)
    a.send("b", "plain", None, size=1)
    context.sim.run()
    assert [label for label, _ in seen] == [
        "waiting starts", "plain", "waiting ends"]
    times = dict(seen)
    assert times["plain"] == pytest.approx(tls, abs=1e-6)
    assert times["waiting starts"] == pytest.approx(tls, abs=1e-6)
    assert times["waiting ends"] == pytest.approx(1.0 + tls, abs=1e-6)


def test_messages_to_plain_handlers_build_no_process(monkeypatch):
    # A ping and its pong: each message's passage and dispatch are event
    # callbacks, not processes.
    context = make_context()
    a = make_node(context, "a")
    b = make_node(context, "b")
    pongs = []
    b.on("ping", lambda message: b.send("a", "pong", message.payload))
    a.on("pong", lambda message: pongs.append(message.payload))
    built = []
    original = Process.__init__

    def counting_init(process, *args, **kwargs):
        built.append(getattr(args[1], "__name__", "?"))
        original(process, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    a.send("b", "ping", 7)
    context.sim.run()
    assert pongs == [7]
    assert built == []


def test_message_pops_keep_their_owner_labels():
    # A waiting handler's own pops carry the dispatch's label, like the
    # TLS charge before it.
    context = make_context()
    a = make_node(context, "a")
    b = make_node(context, "b")
    ends = []

    def waiting(message):
        yield context.sim.timeout(1.0)
        ends.append(context.sim.now)

    b.on("work", waiting)
    context.sim.run()  # the receive loops' start-up pops
    digest = TraceDigest(context.sim).attach()
    a.send("b", "work", None)
    context.sim.run()
    assert len(ends) == 1
    assert [(record.event_type, record.owner)
            for record in digest.records] == [
        ("Request", "_transmit"), ("Timeout", "_transmit"),
        ("Timeout", "_transmit"), ("Event", "_receive_loop"),
        ("Request", "_dispatch"), ("Timeout", "_dispatch"),
        ("Timeout", "_dispatch")]
    assert digest.records[-1].time == ends[0]


def test_plain_handler_exception_raises_out_of_run():
    # Raised in the pop that ends the TLS charge: no failed process is
    # scheduled to carry it.
    context = make_context()
    a = make_node(context, "a")
    b = make_node(context, "b")

    def broken(message):
        raise ValueError("handler bug")

    b.on("ping", broken)
    digest = TraceDigest(context.sim).attach()
    a.send("b", "ping", None)
    with pytest.raises(ValueError, match="handler bug"):
        context.sim.run()
    last = digest.records[-1]
    assert (last.event_type, last.owner) == ("Timeout", "_dispatch")

