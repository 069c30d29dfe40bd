"""Spans around the calls into each rplsim module, for the traced pass.

``install`` replaces each wrapped callable at the name its caller looks up
(``engine`` calls ``rpl.handle_dio`` through the module, ``ids`` calls its
own ``check_malicious`` and imported ``compute_quartiles`` as globals, and
so on), so the program runs unchanged but every call opens a span.  The
engine's heap pop is counted the same way, through the ``heapq`` name the
run loop uses.  Wrappers pass arguments through untouched and draw no
randomness, so a traced run must reproduce the untraced trace exactly.
"""

from __future__ import annotations

import gzip
import heapq
import os
import pickle
import types

from tracer import SPAN_HEADER, Tracer

MIB = 1 << 20


def run_id(scenario, seed) -> str:
    """``<variant>-s<seed>``, the variant spelled as the batch labels it."""
    label = scenario.name
    if scenario.n_attackers:
        label += f"-r{scenario.attacker.replay_interval_ms / 1000:g}s"
    return f"{label}-s{seed}"


class Layers:
    """Counters gathered at the wrapped boundaries of one traced repetition."""

    def __init__(self, workload: str, span_path: str):
        self.tracer = Tracer(run_id=workload)
        self.workload = workload
        self._spans = gzip.open(span_path, "wt", encoding="utf-8", compresslevel=1)
        self._spans.write(SPAN_HEADER)
        self.horizon_ms = 0
        self.events = 0
        self.receivers = 0
        self.strobes = 0
        self.trace_records = 0
        self.discards = 0
        self.trace_bytes = 0
        self.result_bytes = 0
        self.results = 0

    def close(self) -> None:
        self.tracer.write(self._spans)
        self._spans.close()

    # -- hooks -------------------------------------------------------------

    def _pop(self, heap):
        item = heapq.heappop(heap)
        if item[0] <= self.horizon_ms:
            self.events += 1
        return item

    def _on_init(self, args, kwargs):
        self.tracer.run_id = run_id(args[1], args[2])

    def _on_engine_run(self, args, kwargs):
        self.tracer.run_id = run_id(args[0], args[1])

    def _on_run(self, args, kwargs):
        sim = args[0]
        self.tracer.run_id = run_id(sim.scenario, sim.seed)
        self.horizon_ms = sim.scenario.duration_ms

    def _after_run(self, args, kwargs, result):
        with self.tracer.off_clock():
            trace = args[0].trace
            self.trace_records += len(trace)
            self.discards += sum(1 for rec in trace if rec[2] == "ids_discard")
        self.tracer.write(self._spans)
        self.tracer.run_id = self.workload

    def _on_deliver(self, args, kwargs):
        radio, airtime = args[0], args[2]
        self.receivers += len(args[3])
        if airtime == radio.config.strobe_airtime_ms:
            self.strobes += 1

    def _after_write_trace(self, args, kwargs, result):
        with self.tracer.off_clock():
            self.trace_bytes += os.path.getsize(args[1])

    def _after_run_one(self, args, kwargs, result):
        with self.tracer.off_clock():
            self.result_bytes += len(pickle.dumps(result))
            self.results += 1

    # -- installation ------------------------------------------------------

    def install(self, rplsim) -> None:
        """Wrap rplsim's callables in place; ``rplsim`` is the imported package."""
        engine, radio, cli = rplsim.engine, rplsim.radio, rplsim.cli
        wrap = self.tracer.wrap

        def patch(owner, attr, name, before=None, after=None):
            setattr(owner, attr, wrap(name, getattr(owner, attr), before, after))

        Simulation = engine.Simulation
        patch(Simulation, "__init__", "engine.Simulation.__init__", self._on_init)
        patch(Simulation, "run", "engine.Simulation.run", self._on_run, self._after_run)
        patch(engine, "run", "engine.run", self._on_engine_run)
        patch(engine, "attacker_step", "attack.attacker_step")
        patch(rplsim.rpl, "handle_dio", "rpl.handle_dio")
        patch(rplsim.rpl, "select_parent", "rpl.select_parent")
        patch(rplsim.ids, "process_dio", "ids.process_dio")
        patch(rplsim.ids, "check_malicious", "ids.check_malicious")
        patch(rplsim.ids, "compute_quartiles", "outliers.compute_quartiles")
        patch(radio.Radio, "deliver", "radio.deliver", self._on_deliver)
        patch(radio.Mobility, "move", "radio.move")
        patch(rplsim.metrics, "from_trace", "metrics.from_trace")
        patch(rplsim.metrics, "run_csv_row", "metrics.run_csv_row")
        patch(rplsim.metrics, "aggregate_csv_row", "metrics.aggregate_csv_row")
        patch(cli, "write_trace", "trace.write_trace", after=self._after_write_trace)
        patch(cli, "run_batch", "cli.run_batch")
        # cli imported its own reference to load_batch; both names share one wrapper
        cli.load_batch = rplsim.config.load_batch = wrap(
            "config.load_batch", rplsim.config.load_batch
        )
        # private helpers: their time and sizes are reported if they exist
        if hasattr(cli, "_write_plot_data"):
            patch(cli, "_write_plot_data", "cli.write_plot_data")
        if hasattr(cli, "_run_one"):
            patch(cli, "_run_one", "cli.run_one", after=self._after_run_one)
        counting = types.SimpleNamespace(**vars(heapq))
        counting.heappop = self._pop
        engine.heapq = counting

    # -- figures -----------------------------------------------------------

    def figures(self) -> dict[str, float]:
        """Per-layer figures: totals over the repetition, plus ratios."""
        t = self.tracer
        total = {name: ns / 1e9 for name, ns in t.total_ns.items()}
        own = {name: ns / 1e9 for name, ns in t.self_ns.items()}
        calls = t.calls

        def share(part, whole):
            return part / whole if whole else 0.0

        run_s = total.get("engine.Simulation.run", 0.0)
        delivers = calls["radio.deliver"]
        dio_checks = calls["ids.process_dio"]
        return {
            "engine.events": self.events,
            "engine.run_s": run_s,
            "engine.self_s": own.get("engine.Simulation.run", 0.0),
            "engine.us_per_event": share(run_s * 1e6, self.events),
            "engine.init_s": total.get("engine.Simulation.__init__", 0.0),
            "radio.deliver.calls": delivers,
            "radio.deliver.self_s": own.get("radio.deliver", 0.0),
            "radio.receivers_per_frame": share(self.receivers, delivers),
            "radio.strobe_share": share(self.strobes, delivers),
            "radio.move.calls": calls["radio.move"],
            "radio.move.s": total.get("radio.move", 0.0),
            "rpl.handle_dio.calls": calls["rpl.handle_dio"],
            "rpl.handle_dio.self_s": own.get("rpl.handle_dio", 0.0),
            "rpl.select_parent.calls": calls["rpl.select_parent"],
            "rpl.select_parent.s": total.get("rpl.select_parent", 0.0),
            "ids.process_dio.calls": dio_checks,
            "ids.process_dio.self_s": own.get("ids.process_dio", 0.0),
            "ids.check_malicious.calls": calls["ids.check_malicious"],
            "ids.check_malicious.s": total.get("ids.check_malicious", 0.0),
            "outliers.compute_quartiles.calls": calls["outliers.compute_quartiles"],
            "ids.discard_share": share(self.discards, dio_checks),
            "attack.attacker_step.calls": calls["attack.attacker_step"],
            "trace.records": self.trace_records,
            "metrics.from_trace.s": total.get("metrics.from_trace", 0.0),
            "trace.write_trace.s": total.get("trace.write_trace", 0.0),
            "trace.write_mb": self.trace_bytes / MIB,
            "config.load_batch.s": total.get("config.load_batch", 0.0),
            "cli.run_batch.s": total.get("cli.run_batch", 0.0),
            "cli.result_mb": share(self.result_bytes / MIB, self.results),
            "cli.csv_s": sum(
                total.get(name, 0.0)
                for name in (
                    "metrics.run_csv_row",
                    "metrics.aggregate_csv_row",
                    "cli.write_plot_data",
                )
            ),
        }
