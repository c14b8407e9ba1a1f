"""Tests for hierarchical span tracing and Chrome trace export."""

import json

import pytest

from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.sim import Simulation


def test_span_records_simulated_interval():
    sim = Simulation()
    tracer = Tracer(sim)

    def proc():
        with tracer.span("work", category="test", node="n1",
                         tx_id="tx1") as span:
            yield sim.timeout(2.5)
            span.set_wait(0.5)

    sim.process(proc())
    sim.run()
    (span,) = tracer.spans
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration == 2.5
    assert span.wait == 0.5
    assert span.node == "n1"
    assert span.tx_id == "tx1"


def test_spans_nest_per_process():
    sim = Simulation()
    tracer = Tracer(sim)

    def proc():
        with tracer.span("outer", node="n1"):
            yield sim.timeout(1)
            with tracer.span("inner", node="n1"):
                yield sim.timeout(1)

    sim.process(proc())
    sim.run()
    outer, inner = tracer.spans
    assert outer.parent is None
    assert inner.parent is outer


def test_concurrent_processes_do_not_share_span_stacks():
    sim = Simulation()
    tracer = Tracer(sim)

    def proc(name, delay):
        with tracer.span(name, node="n1"):
            yield sim.timeout(delay)

    sim.process(proc("a", 3))
    sim.process(proc("b", 1))
    sim.run()
    spans = {span.name: span for span in tracer.spans}
    # b opens while a is live, but in a different process: no parenting.
    assert spans["b"].parent is None
    assert spans["a"].parent is None


def test_annotate_merges_arguments():
    sim = Simulation()
    tracer = Tracer(sim)
    with tracer.span("s", node="n", detail=1) as span:
        span.annotate(outcome="ok")
    assert span.args == {"detail": 1, "outcome": "ok"}


def test_null_tracer_is_falsy_and_inert():
    assert not NULL_TRACER
    assert not NullTracer()
    assert NULL_TRACER.enabled is False
    # The null tracer's span is the inert NULL_SPAN sentinel: nothing
    # opens, so there is nothing to close on any path.
    span = NULL_TRACER.span("anything", node="x", tx_id="y")  # simlint: disable=SL013
    assert span is NULL_SPAN
    with span as inner:
        inner.annotate(a=1).set_wait(2.0)
    assert NULL_TRACER.instant("i") is None


def test_chrome_trace_is_valid_json_with_complete_events():
    sim = Simulation()
    tracer = Tracer(sim)

    def proc():
        with tracer.span("endorse", category="execute", node="peer0",
                         tx_id="t1"):
            yield sim.timeout(0.004)

    sim.process(proc())
    sim.run()
    tracer.instant("cut", category="order", node="osn0", block=1)
    payload = json.loads(json.dumps(tracer.to_chrome_trace()))
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    (endorse,) = complete
    assert endorse["name"] == "endorse"
    assert endorse["cat"] == "execute"
    assert endorse["ts"] == 0.0
    assert endorse["dur"] == 4000.0          # microseconds
    assert endorse["args"]["tx_id"] == "t1"
    instants = [e for e in events if e["ph"] == "i"]
    assert instants[0]["name"] == "cut"
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"peer0", "osn0"}


def test_chrome_trace_lanes_never_overlap():
    sim = Simulation()
    tracer = Tracer(sim)

    def proc(delay, hold):
        yield sim.timeout(delay)
        with tracer.span("job", node="peer0"):
            yield sim.timeout(hold)

    # Three overlapping spans on one node must spread over lanes.
    sim.process(proc(0.0, 3.0))
    sim.process(proc(1.0, 3.0))
    sim.process(proc(2.0, 3.0))
    sim.process(proc(7.0, 1.0))   # after the burst: reuses a lane
    sim.run()
    events = [e for e in tracer.to_chrome_trace()["traceEvents"]
              if e["ph"] == "X"]
    by_lane = {}
    for event in events:
        by_lane.setdefault((event["pid"], event["tid"]), []).append(
            (event["ts"], event["ts"] + event["dur"]))
    for intervals in by_lane.values():
        intervals.sort()
        for (_, prev_end), (next_start, _) in zip(intervals, intervals[1:]):
            assert next_start >= prev_end
    lanes_used = {tid for _pid, tid in by_lane}
    assert len(lanes_used) == 3   # burst of 3 concurrent spans


def test_write_chrome_trace_round_trips(tmp_path):
    sim = Simulation()
    tracer = Tracer(sim)
    with tracer.span("s", node="n"):
        pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_extra_events_are_mapped_to_node_processes():
    sim = Simulation()
    tracer = Tracer(sim)
    with tracer.span("s", node="peer0"):
        pass
    extra = [{"name": "busy", "ph": "C", "ts": 0.0, "node": "peer0",
              "args": {"busy": 1.5}}]
    events = tracer.to_chrome_trace(extra_events=extra)["traceEvents"]
    counter = next(e for e in events if e["ph"] == "C")
    span = next(e for e in events if e["ph"] == "X")
    assert counter["pid"] == span["pid"]
    assert "node" not in counter


def test_attach_wait_accumulates_on_the_innermost_open_span():
    sim = Simulation()
    tracer = Tracer(sim)

    def worker():
        with tracer.span("outer", node="peer"):
            with tracer.span("inner", node="peer"):
                tracer.attach_wait(0.25)
                tracer.attach_wait(0.5)
                yield sim.timeout(1.0)
            tracer.attach_wait(0.125)

    sim.process(worker())
    sim.run()
    waits = {span.name: span.wait for span in tracer.spans}
    assert waits["inner"] == pytest.approx(0.75)
    assert waits["outer"] == pytest.approx(0.125)


def test_attach_wait_without_open_span_is_a_no_op():
    sim = Simulation()
    tracer = Tracer(sim)
    tracer.attach_wait(1.0)      # must not raise, nothing to attach to
    assert tracer.spans == []


def test_record_complete_appends_a_finished_span_without_stacks():
    sim = Simulation()
    tracer = Tracer(sim)
    tracer.record_complete("fault.down", category="fault", node="peer1",
                           start=2.0, end=5.0, target="peer1")
    span = tracer.spans[0]
    assert (span.start, span.end) == (2.0, 5.0)
    assert span.duration == pytest.approx(3.0)
    assert span.args == {"target": "peer1"}
    assert span.parent is None
    assert tracer._stacks == {}
    # Retro-recorded spans export like any other.
    events = tracer.to_chrome_trace()["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "fault.down" for e in events)


def test_null_tracer_new_surface_is_inert():
    assert NULL_TRACER.attach_wait(1.0) is None
    assert NULL_TRACER.record_complete("x", start=0.0, end=1.0) is None
