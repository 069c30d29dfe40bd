"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, from the repository root:

    python3 perfbench/rep.py --workload attack-static --sim-seeds 3,9 --trace 0

It imports rplsim from ``src/`` of the same checkout, sets the workload up,
runs it once and prints one JSON object: set-up time, wall time, peak RSS,
a sha256 fingerprint per output and any error per run.  With ``--trace 1``
every call into an rplsim module is wrapped in a span (see ``layers.py``)
and the object also carries the per-layer figures; spans are written to
``perfbench/out/spans-<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "configs", "headline.cfg")
OUT = os.path.join(HERE, "out")

# the batch variant each engine workload runs, from the headline grid
ENGINE_VARIANTS = {
    "attack-static": "static-attack-r1s",
    "cosec-mobile": "mobile-cosec-r1s",
}
BATCH = "batch-traced"
WORKLOADS = (*ENGINE_VARIANTS, BATCH)


def trace_sha256(trace) -> str:
    """sha256 of a trace laid out as ``rplsim.trace.write_trace`` writes it."""
    text = "".join("\t".join(str(field) for field in rec) + "\n" for rec in trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_sha256(top: str) -> dict[str, str]:
    """sha256 of every file under ``top``, keyed by its relative path."""
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, top).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def import_rplsim():
    sys.path.insert(0, SRC)
    import rplsim.cli  # loads config, engine, ids, metrics, radio, rpl, trace

    if not os.path.abspath(rplsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rplsim was imported from {rplsim.__file__}, not {SRC}")
    return rplsim


def run_engine(sims, label):
    """Run each simulation in turn; time only the ``run()`` calls."""
    walls, fingerprints, errors = {}, {}, {}
    while sims:
        seed, sim = sims.pop(0)
        name = f"{label}-s{seed}"
        started = time.perf_counter()
        try:
            sim.run()
        except Exception:  # a run that raises is a failed run, not a crash
            errors[name] = traceback.format_exc()
            continue
        finally:
            walls[name] = time.perf_counter() - started
        fingerprints[name] = trace_sha256(sim.trace)
    return walls, fingerprints, errors


def run_batch(rplsim, seeds, workers):
    """One traced-output batch over the headline grid, timed with its writing."""
    out_dir = os.path.join(OUT, f"batch-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    errors = {}
    started = time.perf_counter()
    try:
        rplsim.cli.run_batch(
            CONFIG, out_dir, seeds=tuple(seeds), keep_traces=True, workers=workers
        )
    except Exception:
        errors["batch"] = traceback.format_exc()
    wall = time.perf_counter() - started
    fingerprints = {} if errors else tree_sha256(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"batch": wall}, fingerprints, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--sim-seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=2, help="batch pool size")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(tok) for tok in args.sim_seeds.split(",")]
    os.makedirs(OUT, exist_ok=True)

    started = time.perf_counter()
    rplsim = import_rplsim()
    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers(args.workload, os.path.join(OUT, f"spans-{args.workload}.tsv.gz"))
        layers.install(rplsim)
    batch = rplsim.config.load_batch(CONFIG)
    if args.workload == BATCH:
        setup_s = time.perf_counter() - started
        if not args.setup_only:
            walls, fingerprints, errors = run_batch(
                rplsim, seeds, 1 if args.trace else args.workers
            )
    else:
        label = ENGINE_VARIANTS[args.workload]
        scenario = next(sc for lb, sc, _ in batch.variants() if lb == label)
        sims = [(seed, rplsim.engine.Simulation(scenario, seed)) for seed in seeds]
        setup_s = time.perf_counter() - started
        if not args.setup_only:
            walls, fingerprints, errors = run_engine(sims, label)

    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(
            wall_s=sum(walls.values()),
            walls=walls,
            peak_rss_mb=peak_rss_mb(),
            fingerprints=fingerprints,
            errors=errors,
        )
    if layers is not None:
        layers.close()
        result["layers"] = layers.figures()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
