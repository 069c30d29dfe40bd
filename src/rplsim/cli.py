"""Batch runner: expand a config into its scenario grid and emit results.

``rplsim run config.cfg --out results/`` runs every (variant, seed) pair,
then writes per-run rows (runs.csv), per-variant aggregates with 95%
confidence half-widths (summary.csv), and plain columnar plot data for the
four standard figures (PDR and delay vs replay interval, detection accuracy,
per-attacker response time).  Results are written only once every run has
finished; a run that fails leaves ``--out`` as it was, and so does a failure
while writing the results into a new ``--out``.  With ``--trace``
each worker writes its run's trace into a staging directory in ``--out``
and returns only the metrics, so a traced batch's memory does not grow with
its runs; once every run has succeeded the staging directory replaces
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
from .config import BatchConfig, ConfigError, load_batch, variant_label
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
    staging = os.path.join(out_dir, ".traces-staging") if keep_traces else None
    if staging:
        shutil.rmtree(staging, ignore_errors=True)  # left by a batch that was killed
    os.makedirs(staging or out_dir, exist_ok=True)
    jobs = [
        (
            label,
            replace(scenario, trace_positions=True) if keep_traces else scenario,
            seed,
            staging,
        )
        for label, scenario, _ in variants
        for seed in batch.seeds
    ]
    log.info("running %d jobs (%d variants x %d seeds)", len(jobs), len(variants), len(batch.seeds))
    try:
        if workers > 1:
            with multiprocessing.Pool(workers) as pool:
                raw = pool.map(_run_one, jobs)
        else:
            raw = [_run_one(job) for job in jobs]
        run_metrics = {(label, seed): m for label, seed, m in raw}
        by_label = {
            label: [run_metrics[(label, seed)] for seed in batch.seeds]
            for label, _, _ in variants
        }

        paths = {}

        runs_path = os.path.join(out_dir, "runs.csv")
        with open(runs_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.RUN_CSV_HEADER + "\n")
            for label, _, _ in variants:
                for seed, m in zip(batch.seeds, by_label[label]):
                    fh.write(metrics.run_csv_row(label, seed, m) + "\n")
        paths["runs"] = runs_path

        summary_path = os.path.join(out_dir, "summary.csv")
        duration = batch.base.duration_ms
        attack_start = batch.base.attacker.attack_start_ms
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.AGGREGATE_CSV_HEADER + "\n")
            for label, _, _ in variants:
                fh.write(
                    metrics.aggregate_csv_row(label, by_label[label], duration, attack_start)
                    + "\n"
                )
        paths["summary"] = summary_path

        paths.update(_write_plot_data(out_dir, batch, by_label))

        if staging:
            trace_dir = os.path.join(out_dir, "traces")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.replace(staging, trace_dir)
            paths["traces"] = trace_dir
    except BaseException:
        if made_out_dir or staging:
            shutil.rmtree(out_dir if made_out_dir else staging)
        raise
    return paths


def _write_plot_data(out_dir, batch: BatchConfig, by_label) -> dict[str, str]:
    """The four figure files, from each variant's per-seed RunMetrics."""
    fmt = metrics.fmt
    intervals = sorted(batch.replay_intervals_ms)
    mobs = [m for m in ("static", "mobile") if m in batch.mobility_modes]
    duration = batch.base.duration_ms
    attack_start = batch.base.attacker.attack_start_ms
    paths = {}

    def mean_of(label, attr):
        runs = by_label.get(label)
        return metrics.aggregate([getattr(m, attr) for m in runs]).mean if runs else None

    figures = (
        ("pdr", "pdr", 1.0, batch.modes),
        ("ae2ed", "ae2ed_ms", 0.001, batch.modes),
        ("ada", "ada", 1.0, ("cosec",)),
    )
    for figure, attr, scale, modes in figures:
        path = os.path.join(out_dir, f"plot_{figure}.dat")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            cols = [f"{mob}-{mode}" for mob in mobs for mode in modes]
            fh.write("# replay_interval_s " + " ".join(cols) + "\n")
            for interval in intervals:
                row = [f"{interval / 1000:g}"]
                for mob in mobs:
                    for mode in modes:
                        row.append(fmt(mean_of(variant_label(mob, mode, interval), attr), scale))
                fh.write(" ".join(row) + "\n")
        paths[f"plot_{figure}"] = path

    path = os.path.join(out_dir, "plot_frt.dat")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# replay_interval_s attacker " + " ".join(f"{m}-cosec_frt_s" for m in mobs) + "\n")
        attackers = sorted(
            {
                a
                for runs in by_label.values()
                for m in runs
                for a in m.frt_ms
            }
        )
        for interval in intervals:
            for attacker in attackers:
                row = [f"{interval / 1000:g}", str(attacker)]
                for mob in mobs:
                    runs = by_label.get(variant_label(mob, "cosec", interval))
                    if not runs:
                        row.append("NA")
                        continue
                    vals = metrics.censored_frt_values(runs, duration, attack_start, attacker)
                    row.append(fmt(metrics.aggregate(vals).mean, 0.001))
                fh.write(" ".join(row) + "\n")
    paths["plot_frt"] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rplsim",
        description="RPL/6LoWPAN replay-attack simulator and IDS evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario batch from a config file")
    run_p.add_argument("config", help="path to the scenario config file")
    run_p.add_argument("--out", required=True, help="output directory for result files")
    run_p.add_argument("--seeds", help="comma-separated seed list overriding the config")
    run_p.add_argument("--mode", choices=["baseline", "attack", "cosec"])
    run_p.add_argument("--mobility", choices=["static", "mobile"])
    run_p.add_argument("--trace", action="store_true", help="also write per-run trace files")
    run_p.add_argument("--workers", type=int, default=1, help="parallel run workers")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=getattr(logging, os.environ.get("RPLSIM_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        seeds = None
        if args.seeds:
            seeds = tuple(int(tok) for tok in args.seeds.split(","))
        paths = run_batch(
            args.config,
            args.out,
            seeds=seeds,
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
