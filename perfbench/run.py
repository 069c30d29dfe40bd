"""The rplsim benchmark: run one workload for a while and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload attack-static --seed 1 --seconds 30 --trace 0

Workloads (all on ``configs/headline.cfg``; see ``perfbench/README.md``):

* ``attack-static``  static, undefended, 1 s replay, ``Simulation.run`` serially
* ``cosec-mobile``   mobile, defended, 1 s replay, ``Simulation.run`` serially
* ``batch-traced``   ``cli.run_batch`` over the whole grid, 2 workers, traces kept

``--seed`` picks the simulation seeds of one repetition from the reference
pool in ``perfbench/reference.json``: one seed from each stratum of the pool
sorted by reference run time, so every repetition carries a similar amount
of work.  ``--sim-seeds`` names the seeds instead; seeds with no reference
fingerprint are held out: their fingerprints are printed, not checked.

Each repetition runs in a fresh process (``rep.py``); repetitions repeat
until ``--seconds`` have passed and at least three have run.  Timings are
the medians over repetitions.  Every output is checked against the
reference sha256 recorded at the seed commit, and every repetition must
reproduce the others; a run that raises or differs counts as failed.  With
``--trace 1`` one more repetition runs with every call into an rplsim module
wrapped in a span; its outputs must equal the untraced ones, and it reports
the per-layer metrics instead of the end-to-end ones.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from ``BENCHMARK.json``.  ``--record`` re-measures the pool and rewrites the
reference file; run it only at a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("attack-static", "cosec-mobile", "batch-traced")
BATCH = "batch-traced"
BATCH_WORKERS = 2
MIN_REPS = 3
SETUP_SAMPLES = 5  # set-up-only processes per run, on top of one per repetition
DEADLINE_S = 170.0  # a run must end within 180 s

# reference pool per workload: (pool seeds, seeds per repetition)
POOLS = {
    "attack-static": (range(1, 41), 8),
    "cosec-mobile": (range(1, 41), 8),
    "batch-traced": (range(1, 11), 2),
}


class RepFailed(RuntimeError):
    """A repetition process crashed or overran; the benchmark cannot report."""


def rep(workload, seeds, deadline, trace=0, workers=BATCH_WORKERS, setup_only=False):
    """Run one repetition in a fresh process and return its JSON result."""
    cmd = [
        sys.executable, REP, "--workload", workload,
        "--sim-seeds", ",".join(map(str, seeds)),
        "--trace", str(trace), "--workers", str(workers),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so a timeout can stop the batch pool too
    )
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} repetition overran the deadline")
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def strata(pool: dict[str, float], per_rep: int) -> list[list[int]]:
    """Split the pool, sorted by reference run time, into ``per_rep`` strata."""
    ordered = sorted(pool, key=lambda seed: (pool[seed], int(seed)))
    size = len(ordered) // per_rep
    return [[int(s) for s in ordered[i * size:(i + 1) * size]] for i in range(per_rep)]


def pick_seeds(ref: dict, seed: int) -> list[int]:
    rng = random.Random(f"perfbench/{seed}")
    return [rng.choice(stratum) for stratum in strata(ref["strata_key_s"], ref["per_rep"])]


def reference_key(workload: str, seeds, name: str) -> str:
    """Where a fingerprint lives in the reference file.

    Trace files depend on their own (variant, seed) only; the batch's CSV
    and plot files depend on the whole seed list, so their key names it.
    """
    if workload == BATCH and not name.startswith("traces/"):
        return f"seeds={','.join(map(str, seeds))}/{name}"
    return name


def measure(workload, seeds, seconds, trace, deadline):
    """Run the repetitions; returns (untraced results, set-up samples, traced)."""
    setup = [rep(workload, seeds, deadline, setup_only=True)["setup_s"]
             for _ in range(SETUP_SAMPLES)]
    reps = []
    started = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - started < seconds:
        reps.append(rep(workload, seeds, deadline))
    setup += [r["setup_s"] for r in reps]
    traced = None
    if trace:
        # the traced batch runs in-process, so its untraced baseline must too
        baseline = (
            rep(workload, seeds, deadline, workers=1)["wall_s"]
            if workload == BATCH
            else statistics.median([r["wall_s"] for r in reps])
        )
        traced = rep(workload, seeds, deadline, trace=1)
        traced["layers"]["trace_overhead_s"] = traced["wall_s"] - baseline
    return reps, setup, traced


def covered(seeds, key: str) -> bool:
    """Whether a reference key belongs to a run over ``seeds``."""
    if key.startswith("seeds="):
        return key.startswith(f"seeds={','.join(map(str, seeds))}/")
    return int(key.removesuffix(".tsv").rsplit("-s", 1)[1]) in seeds


def check(workload, seeds, reps, traced, reference):
    """Count runs and failures; returns (attempted, failed, problems, held_out).

    Every output must match its reference fingerprint, if it has one, and
    the output of the first repetition; a referenced output that is missing
    fails too.  A batch is one run, however many of its files differ.
    """
    expected = {k: v for k, v in reference["fingerprints"].items() if covered(seeds, k)}
    runs = [(f"rep {i}", r) for i, r in enumerate(reps, 1)]
    if traced:
        runs.append(("traced", traced))

    def outputs(result):
        return {reference_key(workload, seeds, n): d for n, d in result["fingerprints"].items()}

    first = outputs(reps[0])
    attempted = failed = 0
    problems, held_out = [], {}
    for label, result in runs:
        attempted += len(result["walls"])
        got = outputs(result)
        bad = set(result["errors"])
        problems += [f"{label}: {name} raised\n{err}" for name, err in result["errors"].items()]
        for key in sorted((got.keys() | expected.keys() | first.keys()) - bad):
            digest = got.get(key)
            if key not in expected:
                held_out[key] = digest
            elif digest != expected[key]:
                problems.append(f"{label}: {key} is missing or differs from the reference")
                bad.add(key)
            if digest != first.get(key):
                problems.append(f"{label}: {key} differs from rep 1")
                bad.add(key)
        failed += min(len(bad), len(result["walls"]))
    return attempted, failed, problems, held_out


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    for need in (SPEC, REFERENCE, os.path.join(ROOT, "src", "rplsim", "__init__.py"),
                 os.path.join(ROOT, "configs", "headline.cfg")):
        if not os.path.exists(need):
            print(f"error: {need} is missing; run from a full checkout", file=sys.stderr)
            return 2
    spec = load_json(SPEC)
    reference = load_json(REFERENCE)["workloads"][args.workload]
    seeds = (
        [int(tok) for tok in args.sim_seeds.split(",")]
        if args.sim_seeds
        else pick_seeds(reference, args.seed)
    )
    try:
        reps, setup, traced = measure(args.workload, seeds, args.seconds, args.trace, deadline)
    except RepFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted, failed, problems, held_out = check(
        args.workload, seeds, reps, traced, reference
    )

    if args.trace:
        figures = traced["layers"]
        wanted = spec["per_layer"]
    else:
        figures = {
            "wall_s": statistics.median([r["wall_s"] for r in reps]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# {args.workload}: seeds {','.join(map(str, seeds))}, "
          f"{len(reps)} repetitions, {len(setup)} set-up samples")
    for name in sorted(held_out):
        print(f"# held out (no reference): {name} sha256 {held_out[name]}")
    for problem in problems:
        print(f"# FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}  failed_share = {failed / attempted:.6g} share")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- recording the reference -------------------------------------------------


def record() -> int:
    """Measure every pool seed and write ``reference.json`` from scratch."""
    deadline = None
    out = {"recorded_with": environment(), "workloads": {}}
    for workload, (pool, per_rep) in POOLS.items():
        fingerprints, times = {}, {}
        if workload == BATCH:
            for seed in pool:
                runs = [rep(workload, [seed], deadline) for _ in range(3)]
                times[str(seed)] = statistics.median([r["wall_s"] for r in runs])
                fingerprints.update(same_outputs(runs))
            fingerprints = {k: v for k, v in fingerprints.items() if k.startswith("traces/")}
            entry = {"per_rep": per_rep, "strata_key_s": times}
            for combo in itertools.product(*strata(times, per_rep)):
                result = rep(workload, combo, deadline)
                for name, digest in same_outputs([result]).items():
                    key = reference_key(workload, combo, name)
                    if fingerprints.setdefault(key, digest) != digest:
                        raise SystemExit(f"{key}: batch output is not reproducible")
        else:
            runs = [rep(workload, list(pool), deadline) for _ in range(3)]
            fingerprints = same_outputs(runs)
            for name in runs[0]["walls"]:
                seed = name.rsplit("-s", 1)[1]
                times[seed] = statistics.median([r["walls"][name] for r in runs])
            entry = {"per_rep": per_rep, "strata_key_s": times}
        entry["fingerprints"] = dict(sorted(fingerprints.items()))
        out["workloads"][workload] = entry
        print(f"recorded {workload}: {len(fingerprints)} fingerprints", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def same_outputs(runs) -> dict[str, str]:
    """The runs' common fingerprints; stops if any run raised or differed."""
    first = runs[0]
    for result in runs:
        if result["errors"] or result["fingerprints"] != first["fingerprints"]:
            raise SystemExit(f"cannot record: runs raised or differ: {result['errors']}")
    return first["fingerprints"]


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="picks the simulation seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seeds", help="comma-separated simulation seeds (held-out check)")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
