"""Tests for metric computation, aggregation, and trace round-tripping."""

from __future__ import annotations

import math
import statistics

import pytest

from rplsim import engine, metrics
from rplsim.config import ScenarioConfig, make_variant
from rplsim.metrics import Aggregate, aggregate, censored_frt_values, from_trace
from rplsim.radio import RadioConfig
from rplsim.trace import read_trace, write_trace
from tests.metrics_reference import compute_ada, compute_ae2ed, compute_frt, compute_pdr

# synthetic run: 2 sensors (1, 2), one attacker (3), attack at 90 s
INFO = (0, -1, "run_info", "synthetic", 1, 2, 1, 90_000, 1_800_000, 3)


def trace_with(*records):
    return [INFO, *records]


class TestGroundTruth:
    """``from_trace`` takes the attackers and the attack start from ``run_info``."""

    def test_parses_run_info(self):
        suspected = from_trace(trace_with((90_500, 1, "ids_suspect", 3)))
        assert suspected.frt_ms.keys() == suspected.block_ms.keys() == {3}
        assert suspected.frt_ms == {3: 500}

    def test_missing_run_info_rejected(self):
        with pytest.raises(ValueError, match="run_info"):
            from_trace([(0, 1, "data_sent", 1, 1)])

    def test_no_attackers_empty_set(self):
        m = from_trace([(0, -1, "run_info", "x", 1, 2, 0, 90_000, 100_000, -1)])
        assert m.frt_ms == m.block_ms == {}


class TestHeadlineMetrics:
    def test_pdr_plain_ratio(self):
        trace = trace_with(
            (1000, 1, "data_sent", 1, 1),
            (2000, 2, "data_sent", 1, 1),
            (2400, 0, "data_delivered", 2, 1, 2000),
        )
        assert compute_pdr(trace) == from_trace(trace).pdr == 0.5

    def test_pdr_counts_origin_retries(self):
        trace = trace_with(
            (1000, 1, "data_sent", 1, 1),
            (1200, 1, "data_sent", 1, 2),
            (1400, 0, "data_delivered", 1, 1, 1000),
        )
        assert compute_pdr(trace) == from_trace(trace).pdr == 0.5

    def test_pdr_null_without_traffic(self):
        assert compute_pdr(trace_with()) is None
        assert from_trace(trace_with()).pdr is None

    def test_ae2ed_mean_over_delivered_only(self):
        trace = trace_with(
            (1200, 0, "data_delivered", 1, 1, 1000),
            (2400, 0, "data_delivered", 2, 1, 2000),
            (9000, 1, "data_drop", 1, 2, "link_loss"),
        )
        assert compute_ae2ed(trace) == pytest.approx(300.0)
        assert from_trace(trace).ae2ed_ms == pytest.approx(300.0)

    def test_ae2ed_null_without_delivery(self):
        trace = trace_with((1, 1, "data_sent", 1, 1))
        assert compute_ae2ed(trace) is None
        assert from_trace(trace).ae2ed_ms is None

    def test_ada_counts_suspicion_events(self):
        trace = trace_with(
            (130_000, 1, "ids_suspect", 3),
            (160_000, 2, "ids_suspect", 3),
            (160_000, 2, "ids_suspect", 1),
            (190_000, 1, "ids_suspect", 3),
            (190_000, 1, "ids_suspect", 3),
        )
        assert compute_ada(trace) == pytest.approx(0.8)
        assert from_trace(trace).ada == pytest.approx(0.8)

    def test_ada_null_without_detections(self):
        assert compute_ada(trace_with()) is None
        assert from_trace(trace_with()).ada is None

    def test_frt_first_suspicion_minus_launch(self):
        trace = trace_with(
            (150_000, 1, "ids_suspect", 3),
            (180_000, 2, "ids_suspect", 3),
        )
        assert compute_frt(trace) == from_trace(trace).frt_ms == {3: 60_000}

    def test_frt_null_for_undetected(self):
        assert compute_frt(trace_with()) == from_trace(trace_with()).frt_ms == {3: None}

    def test_from_trace_inventory(self):
        trace = trace_with(
            (100, 1, "dio_sent", 256, 1),
            (200, 1, "dis_sent"),
            (300, 1, "dao_sent", 0),
            (400, 1, "data_sent", 1, 1),
            (500, 0, "data_delivered", 1, 1, 400),
            (600, 2, "ids_suspect", 1),
            (700, 2, "ids_block", 1),
            (800, 2, "ids_overflow", 9),
            (900, 2, "loop_drop", 1, 1),
        )
        m = from_trace(trace)
        assert (m.dio_sent, m.dis_sent, m.dao_sent) == (1, 1, 1)
        assert m.pdr == 1.0
        assert m.false_suspicions == 1
        assert m.legit_blocks == 1
        assert m.overflow_events == 1
        assert m.loop_drops == 1


class TestAggregation:
    def test_t_interval_known_values(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.n == 3
        assert agg.mean == pytest.approx(2.0)
        assert agg.ci95 == pytest.approx(4.303 * 1.0 / math.sqrt(3))

    @pytest.mark.parametrize(
        "df,t", [(30, 2.042), (31, 2.040), (39, 2.023), (60, 2.000), (120, 1.980), (1000, 1.962)]
    )
    def test_t_value_above_the_table(self, df, t):
        # exact two-sided 95% quantiles, rounded to 3 decimals like the table
        data = [float(i % 2) for i in range(df + 1)]
        expected = t * statistics.stdev(data) / math.sqrt(df + 1)
        assert aggregate(data).ci95 == pytest.approx(expected)

    def test_series_rounds_to_the_textbook_t_values(self):
        # two-sided 95% critical values of Student's t for df 6-30
        textbook = [
            2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
            2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060,
            2.056, 2.052, 2.048, 2.045, 2.042,
        ]
        for df, t in enumerate(textbook, start=6):
            assert df not in metrics._T95
            data = [float(i % 2) for i in range(df + 1)]
            expected = t * statistics.stdev(data) / math.sqrt(df + 1)
            assert aggregate(data).ci95 == pytest.approx(expected, rel=1e-12), df

    def test_none_values_skipped(self):
        agg = aggregate([1.0, None, 3.0])
        assert agg.n == 2
        assert agg.mean == pytest.approx(2.0)

    def test_degenerate_sizes(self):
        assert aggregate([]) == Aggregate(0, None, None)
        assert aggregate([5.0]) == Aggregate(1, 5.0, None)

    def test_censored_frt(self):
        runs = [
            from_trace(trace_with((150_000, 1, "ids_suspect", 3))),
            from_trace(trace_with()),
        ]
        vals = censored_frt_values(runs, 1_800_000, 90_000)
        assert vals == [60_000.0, 1_710_000.0]

    def test_no_response_time_before_the_attack_starts(self):
        # the run ends 30 s before the attack would start: nothing to censor
        scenario = make_variant(ScenarioConfig(duration_ms=60_000), "cosec", "static", 1000)
        run, _ = engine.run(scenario, 1)
        assert censored_frt_values([run], 60_000, 90_000) == []
        summary = metrics.summarize([run], 60_000, 90_000)
        assert (summary["frt_mean_s"], summary["frt_ci95_s"]) == ("NA", "NA")


class TestCsvSchema:
    def test_run_row_golden(self):
        m = from_trace(
            trace_with(
                (1000, 1, "data_sent", 1, 1),
                (1400, 0, "data_delivered", 1, 1, 1000),
                (150_000, 1, "ids_suspect", 3),
            )
        )
        row = metrics.run_csv_row("static-cosec-r1s", 4, m)
        assert row == (
            "static-cosec-r1s,4,1.000000,0.400000,1.000000,3=60.000000,3=NA,"
            "0,0,0,1,1,0,0,0,0"
        )

    def test_header_pinned(self):
        assert metrics.RUN_CSV_HEADER.startswith("scenario,seed,pdr,ae2ed_s,ada,frt_s")
        assert metrics.AGGREGATE_CSV_HEADER.startswith("scenario,runs,pdr_mean")


class TestTraceRoundTrip:
    def test_layout_is_tab_joined_str_fields(self, tmp_path):
        records = [
            (0, -1, "run_info", "static-attack", 7, 16, 4, 90_000, 1_800_000, 17),
            (12, 3, "trickle_reset"),
            (15, 3, "dio_sent", 384, 2),
            (16, 3, "position", "1.500", "-0.250"),
            (17, 4, "parent_switch", -1, 3),
            (18, 5, "x", "", "tab-free text", 10**20),
            tuple(range(40)) + ("longer than any record kind",),
            (19, 6, "dio_sent", 512, 3),
        ]
        path = tmp_path / "run.tsv"
        write_trace(records, path)
        joined = "".join("\t".join(str(f) for f in rec) + "\n" for rec in records)
        assert path.read_bytes() == joined.encode("utf-8")

    def test_file_reproduces_metrics(self, tmp_path):
        sc = make_variant(
            ScenarioConfig(
                name="rt",
                duration_ms=300_000,
                n_sensors=4,
                n_attackers=1,
                radio=RadioConfig(tx_range_m=65.0),
                ids_enabled=True,
            ),
            "cosec",
            "static",
            1000,
        )
        live_metrics, trace = engine.run(sc, seed=6)
        path = tmp_path / "run.tsv"
        write_trace(trace, path)
        replayed = read_trace(path)
        assert replayed == trace
        assert from_trace(replayed) == live_metrics

    @pytest.mark.parametrize("name", ["2024", "1_000", "-7", "007"])
    def test_a_numeric_scenario_name_stays_a_string(self, tmp_path, name):
        sc = ScenarioConfig(name=name, duration_ms=20_000, n_sensors=3, n_attackers=0)
        _, trace = engine.run(sc, seed=1)
        assert trace[0][:4] == (0, -1, "run_info", name)
        path = tmp_path / "run.tsv"
        write_trace(trace, path)
        assert read_trace(path) == trace
