"""Self-time arithmetic of the benchmark's span tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import io
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tracer import SPAN_HEADER, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


def span(tracer, clock, name, start, end, body=None):
    clock.t = start
    tracer.open(name)
    if body is not None:
        body()
    clock.t = end
    tracer.close()


def nested_run(tracer, clock):
    """Simulation.run [0, 100] holding handle_dio [10, 40] with select_parent
    [15, 30] inside it, then two sibling deliveries [50, 60] and [70, 75]."""

    def run_body():
        span(tracer, clock, "rpl.handle_dio", 10, 40,
             lambda: span(tracer, clock, "rpl.select_parent", 15, 30))
        span(tracer, clock, "radio.deliver", 50, 60)
        span(tracer, clock, "radio.deliver", 70, 75)

    span(tracer, clock, "engine.Simulation.run", 0, 100, run_body)


def test_nested_and_sibling_self_times():
    clock = FakeClock()
    tracer = Tracer(clock)
    nested_run(tracer, clock)

    assert tracer.self_ns == {
        "engine.Simulation.run": 100 - 30 - 10 - 5,
        "rpl.handle_dio": 30 - 15,
        "rpl.select_parent": 15,
        "radio.deliver": 10 + 5,
    }
    assert tracer.total_ns["engine.Simulation.run"] == 100
    assert tracer.total_ns["rpl.handle_dio"] == 30
    assert tracer.calls["radio.deliver"] == 2
    # every nanosecond of the root belongs to exactly one layer's self time
    assert sum(tracer.self_ns.values()) == tracer.total_ns["engine.Simulation.run"]


def test_self_times_sum_to_every_root():
    clock = FakeClock()
    tracer = Tracer(clock)
    nested_run(tracer, clock)
    span(tracer, clock, "engine.Simulation.__init__", 200, 230)  # a second root
    assert sum(tracer.self_ns.values()) == 100 + 30


def test_off_clock_time_shows_in_no_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.open("engine.Simulation.run")
    clock.t = 10
    with tracer.off_clock():
        clock.t = 1000  # e.g. writing spans
    clock.t = 1020
    tracer.close()
    assert tracer.total_ns["engine.Simulation.run"] == 30
    assert tracer.self_ns["engine.Simulation.run"] == 30


def test_written_spans_name_their_parent_and_run():
    clock = FakeClock()
    tracer = Tracer(clock, run_id="attack-static")
    tracer.run_id = "headline-static-attack-r1s-s1"
    nested_run(tracer, clock)
    out = io.StringIO()
    tracer.write(out)
    assert tracer.closed == []
    rows = [line.split("\t") for line in out.getvalue().splitlines()]
    by_name = {row[2]: row for row in rows}
    root, handle, select = (
        by_name["engine.Simulation.run"],
        by_name["rpl.handle_dio"],
        by_name["rpl.select_parent"],
    )
    assert root[1] == "0"
    assert handle[1] == root[0]
    assert select[1] == handle[0]
    assert (select[3], select[4]) == ("15", "30")
    assert {row[5] for row in rows} == {"headline-static-attack-r1s-s1"}
    assert len(SPAN_HEADER.split("\t")) == len(rows[0])


def test_wrap_passes_calls_through_and_runs_hooks():
    clock = FakeClock()
    tracer = Tracer(clock)
    seen = []

    def target(a, b=0):
        seen.append(("call", a, b))
        return [a + b]

    wrapped = tracer.wrap(
        "x.target",
        target,
        before=lambda args, kwargs: seen.append(("before", args, kwargs)),
        after=lambda args, kwargs, result: seen.append(("after", len(result))),
    )
    assert wrapped(1, b=2) == [3]
    assert seen == [("before", (1,), {"b": 2}), ("call", 1, 2), ("after", 1)]
    assert tracer.calls["x.target"] == 1
    assert wrapped.__name__ == "target"
