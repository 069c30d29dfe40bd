"""End-to-end tests for the batch CLI and its output files."""

from __future__ import annotations

import os

import pytest

from rplsim import cli, engine, metrics
from rplsim.config import load_batch, variant_label
from rplsim.trace import read_trace

HEADLINE = os.path.join(os.path.dirname(__file__), "..", "configs", "headline.cfg")

TINY = """
[scenario]
name = tiny
duration_s = 240
sensors = 5
attackers = 1
replications = 2
modes = baseline attack cosec
mobility_modes = static mobile
replay_intervals_s = 1

[radio]
tx_range_m = 65

[mobility]
area_m = 100 100

[attacker]
attack_start_s = 60

[ids]
activation_s = 90
check_period_s = 15
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunBatch:
    def test_six_aggregate_rows_and_plot_files(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        paths = cli.run_batch(tiny_cfg, str(out))
        summary = read(paths["summary"]).decode().splitlines()
        assert summary[0] == metrics.AGGREGATE_CSV_HEADER
        assert len(summary) == 1 + 6  # 3 modes x 2 mobility modes
        runs = read(paths["runs"]).decode().splitlines()
        assert runs[0] == metrics.RUN_CSV_HEADER
        assert len(runs) == 1 + 6 * 2  # x 2 seeds
        for figure in ("plot_pdr", "plot_ae2ed", "plot_ada", "plot_frt"):
            assert os.path.exists(paths[figure])
            assert read(paths[figure]).decode().startswith("#")

    def test_mean_plots_carry_the_summary_cells(self, tiny_cfg, tmp_path):
        paths = cli.run_batch(tiny_cfg, str(tmp_path / "out"))
        header, *rows = read(paths["summary"]).decode().splitlines()
        summary = {row.split(",")[0]: dict(zip(header.split(","), row.split(","))) for row in rows}
        for figure, column in (("pdr", "pdr_mean"), ("ae2ed", "ae2ed_mean_s"), ("ada", "ada_mean")):
            head, row = read(paths[f"plot_{figure}"]).decode().splitlines()
            variants = head.split()[2:]  # after "# replay_interval_s"
            assert row.split() == ["1"] + [
                summary[variant_label(*v.split("-"), 1000)][column] for v in variants
            ]

    def test_byte_stable_across_invocations(self, tiny_cfg, tmp_path):
        first = cli.run_batch(tiny_cfg, str(tmp_path / "a"))
        second = cli.run_batch(tiny_cfg, str(tmp_path / "b"))
        for name in ("runs", "summary", "plot_pdr", "plot_ae2ed", "plot_ada", "plot_frt"):
            assert read(first[name]) == read(second[name])

    def test_workers_match_serial(self, tiny_cfg, tmp_path):
        serial = cli.run_batch(tiny_cfg, str(tmp_path / "s"), workers=1)
        parallel = cli.run_batch(tiny_cfg, str(tmp_path / "p"), workers=2)
        assert read(serial["runs"]) == read(parallel["runs"])
        assert read(serial["summary"]) == read(parallel["summary"])

    def test_pool_has_no_more_workers_than_jobs(self, tiny_cfg, tmp_path, monkeypatch):
        asked = []  # the size of every pool opened

        class RecordingPool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, jobs, chunksize=1):
                return [func(job) for job in jobs]

        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        one = dict(mode="baseline", mobility="static")
        serial = cli.run_batch(tiny_cfg, str(tmp_path / "s"), seeds=(1, 2, 3), **one)
        assert asked == []
        cli.run_batch(tiny_cfg, str(tmp_path / "one"), seeds=(1,), workers=4, **one)
        assert asked == []  # a single job runs in-process
        three = cli.run_batch(tiny_cfg, str(tmp_path / "three"), seeds=(1, 2, 3), workers=4, **one)
        assert asked == [3]
        assert read(three["runs"]) == read(serial["runs"])
        cli.run_batch(tiny_cfg, str(tmp_path / "all"), workers=2)  # 12 jobs
        assert asked == [3, 2]

    def test_mode_and_seed_filters(self, tiny_cfg, tmp_path):
        paths = cli.run_batch(
            tiny_cfg, str(tmp_path / "f"), seeds=(5,), mode="baseline", mobility="static"
        )
        runs = read(paths["runs"]).decode().splitlines()
        assert len(runs) == 2
        assert runs[1].startswith("static-baseline,5,")

    def test_traces_written_on_request(self, tiny_cfg, tmp_path):
        paths = cli.run_batch(
            tiny_cfg, str(tmp_path / "t"), seeds=(1,), mode="baseline",
            mobility="static", keep_traces=True,
        )
        files = os.listdir(paths["traces"])
        assert files == ["static-baseline-s1.tsv"]

    def test_failed_run_leaves_out_dir_as_it_was(self, tiny_cfg, tmp_path, monkeypatch):
        real_run = engine.run

        def run_failing_last(scenario, seed):
            # the last job: every other run has already staged its trace
            if scenario.name == "tiny-mobile-cosec" and seed == 2:
                raise RuntimeError("run failed")
            return real_run(scenario, seed)

        monkeypatch.setattr(engine, "run", run_failing_last)
        absent = tmp_path / "absent"
        with pytest.raises(RuntimeError, match="run failed"):
            cli.run_batch(tiny_cfg, str(absent), keep_traces=True, workers=1)
        assert not absent.exists()
        present = tmp_path / "present"
        present.mkdir()
        (present / "notes.txt").write_text("kept")
        with pytest.raises(RuntimeError, match="run failed"):
            cli.run_batch(tiny_cfg, str(present), keep_traces=True, workers=1)
        assert os.listdir(present) == ["notes.txt"]
        assert (present / "notes.txt").read_text() == "kept"

    def test_failed_write_cleans_up_like_a_failed_run(self, tiny_cfg, tmp_path, monkeypatch):
        def aggregate_row_failing(*args):
            raise OSError("disk full")

        monkeypatch.setattr(metrics, "aggregate_csv_row", aggregate_row_failing)
        one_traced_run = dict(seeds=(1,), mode="baseline", mobility="static", keep_traces=True)
        absent = tmp_path / "absent"
        with pytest.raises(OSError, match="disk full"):
            cli.run_batch(tiny_cfg, str(absent), **one_traced_run)
        assert not absent.exists()
        present = tmp_path / "present"
        present.mkdir()
        with pytest.raises(OSError, match="disk full"):
            cli.run_batch(tiny_cfg, str(present), **one_traced_run)
        assert os.listdir(present) == []

    def test_failed_write_leaves_an_earlier_batch_as_it_was(self, tmp_path, monkeypatch):
        one_run = dict(mode="baseline", mobility="static")
        out = tmp_path / "out"
        cli.run_batch(HEADLINE, str(out), seeds=(1,), **one_run)
        before = {name: read(out / name) for name in os.listdir(out)}
        assert len(before) == 6  # runs, summary and four plot files

        def aggregate_row_failing(*args):
            raise OSError("disk full")

        monkeypatch.setattr(metrics, "aggregate_csv_row", aggregate_row_failing)
        with pytest.raises(OSError, match="disk full"):
            cli.run_batch(HEADLINE, str(out), seeds=(2,), **one_run)
        assert {name: read(out / name) for name in os.listdir(out)} == before

    def test_second_trace_batch_replaces_the_traces(self, tiny_cfg, tmp_path):
        out = tmp_path / "t"
        for seed in (1, 2):
            paths = cli.run_batch(
                tiny_cfg, str(out), seeds=(seed,), mode="baseline",
                mobility="static", keep_traces=True,
            )
        assert os.listdir(paths["traces"]) == ["static-baseline-s2.tsv"]
        assert sorted(os.listdir(out)) == sorted(
            ["runs.csv", "summary.csv", "traces"]
            + [f"plot_{figure}.dat" for figure in ("pdr", "ae2ed", "ada", "frt")]
        )

    def test_run_one_writes_the_trace_and_returns_only_metrics(self, tiny_cfg, tmp_path):
        label, scenario, _ = next(load_batch(tiny_cfg).variants())
        run_metrics, trace = engine.run(scenario, 3)
        assert cli._run_one((label, scenario, 3, None)) == (label, 3, run_metrics)
        staging = tmp_path / "staging"
        staging.mkdir()
        assert cli._run_one((label, scenario, 3, str(staging))) == (label, 3, run_metrics)
        assert os.listdir(staging) == [f"{label}-s3.tsv"]
        assert read_trace(str(staging / f"{label}-s3.tsv")) == trace

    def test_fractional_intervals_keep_their_own_results(self, tmp_path):
        cfg = tmp_path / "frac.cfg"
        cfg.write_text(
            TINY.replace("modes = baseline attack cosec", "modes = attack")
            .replace("mobility_modes = static mobile", "mobility_modes = static")
            .replace("replications = 2", "replications = 1")
            .replace("replay_intervals_s = 1", "replay_intervals_s = 1 1.5")
        )
        paths = cli.run_batch(str(cfg), str(tmp_path / "o"))
        runs = read(paths["runs"]).decode().splitlines()[1:]
        pdr_col = metrics.RUN_CSV_HEADER.split(",").index("pdr")
        pdr = {row.split(",")[0]: float(row.split(",")[pdr_col]) for row in runs}
        assert sorted(pdr) == ["static-attack-r1.5s", "static-attack-r1s"]
        assert pdr["static-attack-r1.5s"] != pdr["static-attack-r1s"]
        # each plot row reads its own interval's runs
        plot = read(paths["plot_pdr"]).decode().splitlines()[1:]
        assert [line.split() for line in plot] == [
            ["1", f"{pdr['static-attack-r1s']:.6f}"],
            ["1.5", f"{pdr['static-attack-r1.5s']:.6f}"],
        ]


class TestMain:
    def test_invalid_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[radio]\ntx_range_m = narrow\n")
        code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "tx_range_m" in err
        assert not os.path.exists(tmp_path / "o")

    def test_infinite_duration_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "forever.cfg"
        cfg.write_text("[scenario]\nduration_s = inf\n")
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: [scenario] duration_s: seconds must be finite, got inf\n"
        )
        assert not os.path.exists(tmp_path / "o")

    def test_attack_after_the_run_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "late.cfg"
        cfg.write_text(
            "[scenario]\nduration_s = 60\nmodes = cosec\nreplications = 2\n"
            "[attacker]\nattack_start_s = 90\n"
        )
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: attack_start must be before the run ends with attack or cosec\n"
        )
        assert not os.path.exists(tmp_path / "o")

    def test_unconnected_layout_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "apart.cfg"
        cfg.write_text(
            "[scenario]\nsensors = 5\nattackers = 0\nmodes = baseline\nreplications = 1\n"
            "[radio]\ntx_range_m = 1\n"
        )
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed 1: no connected layout of 5 sensors in 200 tries with tx_range_m = 1.0\n"
        )
        assert not os.path.exists(tmp_path / "o")

    def test_happy_path_prints_outputs(self, tiny_cfg, tmp_path, capsys):
        code = cli.main(
            ["run", tiny_cfg, "--out", str(tmp_path / "o"), "--seeds", "1",
             "--mode", "baseline", "--mobility", "static"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runs.csv" in out and "summary.csv" in out

    def test_out_that_is_a_file_exit_code(self, tiny_cfg, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        code = cli.main(["run", tiny_cfg, "--out", str(afile), "--mode", "baseline"])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {afile}: Not a directory\n"
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, tiny_cfg, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", tiny_cfg, "--out", str(tmp_path / "o"), "--seeds", "1",
                      "--mode", "baseline", "--mobility", "static", "--workers", workers])
        assert exc.value.code == 2
        assert f"argument --workers: must be at least 1, got {workers}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_malformed_seed_list_names_the_flag(self, tiny_cfg, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", tiny_cfg, "--out", str(tmp_path / "o"), "--seeds", "1,,2"])
        assert exc.value.code == 2
        assert "argument --seeds: not a comma-separated list of integers: '1,,2'" in (
            capsys.readouterr().err
        )
        assert not os.path.exists(tmp_path / "o")

    def test_repeated_seed_names_the_flag(self, tiny_cfg, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", tiny_cfg, "--out", str(tmp_path / "o"), "--seeds", "1,1"])
        assert exc.value.code == 2
        assert "argument --seeds: seeds must not repeat: 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_mode_not_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[scenario]\nmodes = baseline\nreplications = 1\n")
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o"), "--mode", "cosec"])
        assert code == 2
        assert "--mode" in capsys.readouterr().err


class TestGoldenOutput:
    def test_small_run_golden_file(self, tmp_path):
        """Full output of a pinned miniature batch, frozen as a regression."""
        cfg = tmp_path / "g.cfg"
        cfg.write_text(
            "[scenario]\n"
            "name = golden\n"
            "duration_s = 180\n"
            "sensors = 3\n"
            "attackers = 1\n"
            "replications = 1\n"
            "modes = baseline attack\n"
            "mobility_modes = static\n"
            "replay_intervals_s = 1\n"
            "[radio]\n"
            "tx_range_m = 65\n"
            "[mobility]\n"
            "area_m = 80 80\n"
            "[attacker]\n"
            "attack_start_s = 60\n"
        )
        paths = cli.run_batch(str(cfg), str(tmp_path / "o"))
        got = read(paths["runs"]).decode()
        golden = os.path.join(os.path.dirname(__file__), "golden", "small_runs.csv")
        with open(golden, "r", encoding="utf-8") as fh:
            assert got == fh.read()
