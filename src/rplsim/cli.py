"""Batch runner: expand a config into its scenario grid and emit results.

``rplsim run config.cfg --out results/`` runs every (variant, seed) pair,
then writes per-run rows (runs.csv), per-variant aggregates with 95%
confidence half-widths (summary.csv), and plain columnar plot data for the
four standard figures (PDR and delay vs replay interval, detection accuracy,
per-attacker response time).  Every result file is first written into a
staging directory in ``--out`` and moved into place only once every run has
finished and every file is written, so a run or a write that fails leaves
``--out`` as it was.  With ``--trace`` each worker writes its run's trace
into that staging directory and returns only the metrics, so a traced
batch's memory does not grow with its runs; the staged traces replace
``traces/``.  Output is byte-stable for a given config and seed list.
"""

from __future__ import annotations

import argparse
import logging
import multiprocessing
import os
import shutil
import sys
from dataclasses import replace

from . import engine, metrics
from .config import MOBILITY_MODES, MODES, BatchConfig, ConfigError, load_batch, variant_label
from .trace import write_trace

log = logging.getLogger("rplsim")


def _run_one(job):
    label, scenario, seed, trace_dir = job
    run_metrics, trace = engine.run(scenario, seed)
    if trace_dir is not None:
        write_trace(trace, os.path.join(trace_dir, f"{label}-s{seed}.tsv"))
    return label, seed, run_metrics


def run_batch(
    config_path: str,
    out_dir: str,
    seeds: tuple[int, ...] | None = None,
    mode: str | None = None,
    mobility: str | None = None,
    keep_traces: bool = False,
    workers: int = 1,
) -> dict[str, str]:
    """Run the whole grid and write result files; returns the file paths."""
    batch = load_batch(config_path)
    if seeds:
        batch = replace(batch, seeds=tuple(seeds))
    if mode:
        if mode not in batch.modes:
            raise ConfigError(f"--mode {mode} not present in config modes")
        batch = replace(batch, modes=(mode,))
    if mobility:
        if mobility not in batch.mobility_modes:
            raise ConfigError(f"--mobility {mobility} not in config mobility_modes")
        batch = replace(batch, mobility_modes=(mobility,))

    variants = list(batch.variants())
    made_out_dir = not os.path.isdir(out_dir)
    staging = os.path.join(out_dir, ".staging")
    shutil.rmtree(staging, ignore_errors=True)  # left by a batch that was killed
    staged_traces = os.path.join(staging, "traces") if keep_traces else None
    try:
        os.makedirs(staged_traces or staging)
    except NotADirectoryError as err:  # out_dir, or a directory above it, is a file
        raise ValueError(f"--out {out_dir}: {err.strerror}") from None
    jobs = [
        (
            label,
            replace(scenario, trace_positions=True) if keep_traces else scenario,
            seed,
            staged_traces,
        )
        for label, scenario, _ in variants
        for seed in batch.seeds
    ]
    log.info("running %d jobs (%d variants x %d seeds)", len(jobs), len(variants), len(batch.seeds))
    try:
        workers = min(workers, len(jobs))  # start no worker that would idle
        if workers > 1:
            with multiprocessing.Pool(workers) as pool:
                raw = pool.map(_run_one, jobs, chunksize=1)
        else:
            raw = [_run_one(job) for job in jobs]
        by_label = {}  # results come back in job order: variants, then seeds
        for label, _, m in raw:
            by_label.setdefault(label, []).append(m)
        duration = batch.base.duration_ms
        attack_start = batch.base.attacker.attack_start_ms
        summaries = {
            label: metrics.summarize(runs, duration, attack_start)
            for label, runs in by_label.items()
        }

        paths = {}

        runs_path = os.path.join(staging, "runs.csv")
        with open(runs_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.RUN_CSV_HEADER + "\n")
            for label, runs in by_label.items():
                for seed, m in zip(batch.seeds, runs):
                    fh.write(metrics.run_csv_row(label, seed, m) + "\n")
        paths["runs"] = runs_path

        summary_path = os.path.join(staging, "summary.csv")
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.AGGREGATE_CSV_HEADER + "\n")
            for label, summary in summaries.items():
                fh.write(metrics.aggregate_csv_row(label, summary) + "\n")
        paths["summary"] = summary_path

        paths.update(_write_plot_data(staging, batch, by_label, summaries))
        if staged_traces:
            paths["traces"] = staged_traces
            shutil.rmtree(os.path.join(out_dir, "traces"), ignore_errors=True)
        for name, path in paths.items():
            paths[name] = os.path.join(out_dir, os.path.basename(path))
            os.replace(path, paths[name])
        os.rmdir(staging)
    except BaseException:
        shutil.rmtree(out_dir if made_out_dir else staging, ignore_errors=True)
        raise
    return paths


def _write_plot_data(out_dir, batch: BatchConfig, by_label, summaries) -> dict[str, str]:
    """The four figure files: the three mean plots carry each variant's
    summary.csv cell, plot_frt each attacker's censored mean over its runs."""
    intervals = sorted(batch.replay_intervals_ms)
    mobs = [m for m in MOBILITY_MODES if m in batch.mobility_modes]
    duration = batch.base.duration_ms
    attack_start = batch.base.attacker.attack_start_ms
    paths = {}

    figures = (
        ("pdr", "pdr_mean", batch.modes),
        ("ae2ed", "ae2ed_mean_s", batch.modes),
        ("ada", "ada_mean", ("cosec",)),
    )
    for figure, column, modes in figures:
        path = os.path.join(out_dir, f"plot_{figure}.dat")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            cols = [f"{mob}-{mode}" for mob in mobs for mode in modes]
            fh.write("# replay_interval_s " + " ".join(cols) + "\n")
            for interval in intervals:
                row = [f"{interval / 1000:g}"]
                for mob in mobs:
                    for mode in modes:
                        summary = summaries.get(variant_label(mob, mode, interval))
                        row.append(summary[column] if summary else "NA")
                fh.write(" ".join(row) + "\n")
        paths[f"plot_{figure}"] = path

    path = os.path.join(out_dir, "plot_frt.dat")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# replay_interval_s attacker " + " ".join(f"{m}-cosec_frt_s" for m in mobs) + "\n")
        attackers = sorted({a for runs in by_label.values() for m in runs for a in m.frt_ms})
        for interval in intervals:
            for attacker in attackers:
                row = [f"{interval / 1000:g}", str(attacker)]
                for mob in mobs:
                    runs = by_label.get(variant_label(mob, "cosec", interval), [])
                    vals = metrics.censored_frt_values(runs, duration, attack_start, attacker)
                    row.append(metrics.fmt(metrics.aggregate(vals).mean, 0.001))
                fh.write(" ".join(row) + "\n")
    paths["plot_frt"] = path
    return paths


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"seeds must not repeat: {', '.join(map(str, repeated))}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rplsim",
        description="RPL/6LoWPAN replay-attack simulator and IDS evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario batch from a config file")
    run_p.add_argument("config", help="path to the scenario config file")
    run_p.add_argument("--out", required=True, help="output directory for result files")
    run_p.add_argument(
        "--seeds", type=_seed_list, help="comma-separated seed list overriding the config"
    )
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--mobility", choices=MOBILITY_MODES)
    run_p.add_argument("--trace", action="store_true", help="also write per-run trace files")
    run_p.add_argument("--workers", type=int, default=1, help="parallel run workers")
    args = parser.parse_args(argv)
    if args.workers < 1:
        run_p.error(f"argument --workers: must be at least 1, got {args.workers}")

    logging.basicConfig(
        level=getattr(logging, os.environ.get("RPLSIM_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        paths = run_batch(
            args.config,
            args.out,
            seeds=args.seeds,
            mode=args.mode,
            mobility=args.mobility,
            keep_traces=args.trace,
            workers=args.workers,
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
