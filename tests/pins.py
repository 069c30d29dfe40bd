"""Pinned trace and batch-output digests, and one command that replays them
on any interpreter.

Six runs of ``configs/headline.cfg``, each traced the way a ``--trace``
batch writes it (positions on, through ``write_trace``), are hashed and
compared with sha256 digests recorded before the hot path they guard was
last optimised.  The first five are 300 s long.  The fourth shrinks the
detector tables to ``node_max = 8`` so that the overflow path runs too:
when it was recorded it emitted 4,361 ``ids_overflow``, 175
``ids_discard``, 13 ``ids_suspect`` and 3 ``ids_block`` records.  The fifth
moves the detector's checks off the headline's grid (from 120 s every 30 s
to from 45 s every 7 s), so that a change to when checks fall is seen: when
it was recorded it emitted 5,353 ``ids_discard``, 266 ``ids_suspect`` and
65 ``ids_block`` records.  The sixth is a whole 1800 s mobile attack run,
seed 4: it is the one run found whose trace changes when a probe strobe may
run ahead of an event queued before it in the same millisecond.
``TREE_PINS`` holds the sha256 of every file that a traced, serial ``run_batch`` of ``BATCH_CFG`` writes (all three
modes, static and mobile, 1 s replay, seeds 1 and 2, 300 s): ``runs.csv``,
``summary.csv``, the four plot files and the twelve traces.  With two seeds
the ``*_ci95`` columns hold numbers and some ``ada`` cells hold ``NA``.  A
change that is meant to alter the behaviour or a format updates these
digests and says why.

The module needs only the standard library, so interpreters without pytest
can check that they write the same bytes.  From the repository root:

    PYTHONPATH=src python -m tests.pins --python /usr/bin/python3.10 --python python3.13

replays every pin under each named interpreter (under the running one when
none is named) and prints ``pass`` or ``FAIL`` per pin.  The exit status is
1 on any mismatch or crash.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace

from rplsim import cli, engine
from rplsim.config import load_batch
from rplsim.trace import write_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE = os.path.join(ROOT, "configs", "headline.cfg")
DURATION_MS = 300_000

PINNED = {
    ("static-attack-r1s", 1): "a278171119e1cbe0d165f986b2976d1a607d395e89a93f922ddbccf83048eae4",
    ("static-attack-r1s", 2): "44d011c6918cc9dd804eb5fd1dce23580177555bb985dd2b3d0cc5e47c504749",
    ("mobile-cosec-r1s", 1): "eb00603b28d69cbc1dcbb03eb17a901da11471404ee88454bffea2e8194048e7",
}
OVERFLOW_PIN = "e6c7a83170f011a3892029d78bfe43a0508ed7b00e6eeda718ed8cc1f38207f1"
OVERFLOW_RUN = ("static-cosec-r1s", 1, 8)
SCHEDULE_PIN = "ad0e6801a26e3104826f3379d9075f62a22dbd235b42acbb649f734e416beda8"
SCHEDULE_RUN = ("mobile-cosec-r1s", 2, None, (45_000, 7_000))
FULL_LENGTH_PIN = "96b9d6a6dd7eefb04e7cdcf0728b83c66e8cf497cfd5f8671f14b74870253c15"
FULL_LENGTH_RUN = ("mobile-attack-r1s", 4, None, None, 1_800_000)

# every pinned run,
# (label, seed, node_max, (activation_ms, period_ms), duration_ms) -> digest
PINS = {
    **{key + (None, None, None): digest for key, digest in PINNED.items()},
    OVERFLOW_RUN + (None, None): OVERFLOW_PIN,
    SCHEDULE_RUN + (None,): SCHEDULE_PIN,
    FULL_LENGTH_RUN: FULL_LENGTH_PIN,
}

BATCH_CFG = """
[scenario]
name = headline
duration_s = 300
modes = baseline attack cosec
mobility_modes = static mobile
replay_intervals_s = 1
replications = 2

[radio]
tx_range_m = 65
"""

# every file of BATCH_CFG's traced batch, relative path ('/'-separated) -> digest
TREE_PINS = {
    "plot_ada.dat": "c7778b27019c3131bee2d475400a49a3112d263846f9b65e4943114d45dbc582",
    "plot_ae2ed.dat": "ea01af5247f3786522126f923028c5233c97aecd067ff2765c43c67066d5c4ec",
    "plot_frt.dat": "56c792cf3dbded11e1e3e96a9eaa9e9f8c7f3defbd4cf7bfa95ff5b31e66c04c",
    "plot_pdr.dat": "ad1a8e53eb83a7c05a8ea44eecfd70a013812a53e11d78c03107efde62ee68ce",
    "runs.csv": "eae3a7f3c497160eae6f5d19ea7f33a35a7d2064c8b9de49c1b3b9b784e9ee21",
    "summary.csv": "4c3fd50e10cff17f275f7f854137f551901140b1f321d67b64fa5f2b485469ef",
    "traces/mobile-attack-r1s-s1.tsv": "406e29e3fb344de45f6472dc340d8dc48c82a60fb48028b4a8a620b6655f39da",
    "traces/mobile-attack-r1s-s2.tsv": "77ffd65ba784ce4ee96e0785f34331c2322afa6ad89383a8b5b4d87f314345e8",
    "traces/mobile-baseline-s1.tsv": "c0f3f21b66969f7f8d2864e8167a2797424b973483824ade50de4f09470d5576",
    "traces/mobile-baseline-s2.tsv": "757e69e2154d2a5b105b7a6b1e83df47de04a08ca1ba0e44ccf1f16fa443da55",
    "traces/mobile-cosec-r1s-s1.tsv": "eb00603b28d69cbc1dcbb03eb17a901da11471404ee88454bffea2e8194048e7",
    "traces/mobile-cosec-r1s-s2.tsv": "05fb4ceb101dcf0d2243a38a05d7ddddf0998d57ca119e17de661876eb703abe",
    "traces/static-attack-r1s-s1.tsv": "a278171119e1cbe0d165f986b2976d1a607d395e89a93f922ddbccf83048eae4",
    "traces/static-attack-r1s-s2.tsv": "44d011c6918cc9dd804eb5fd1dce23580177555bb985dd2b3d0cc5e47c504749",
    "traces/static-baseline-s1.tsv": "5136c92d3314621237f281dc4691f963a463cd9b6fe43d849ea8d0c20349a0c8",
    "traces/static-baseline-s2.tsv": "a18b9b550b421d49d715ecf5d6ac66763cf852678724c10d8e94365dd1d261a5",
    "traces/static-cosec-r1s-s1.tsv": "1b065e5b9bb0fdf4caad4def3370ad36b746d6abd282e01ce492abe92b986b22",
    "traces/static-cosec-r1s-s2.tsv": "d35120cd69245b003e6ded74b6ea6289dae1d09a3398c0c5241d9a82f6eb950a",
}


def pinned_variants() -> dict:
    """The headline variants by label, cut to the pinned runs' duration."""
    batch = load_batch(HEADLINE)
    batch = replace(batch, base=replace(batch.base, duration_ms=DURATION_MS))
    return {label: scenario for label, scenario, _ in batch.variants()}


def pinned_run(
    variants: dict,
    label: str,
    seed: int,
    node_max: int | None = None,
    schedule: tuple[int, int] | None = None,
    duration_ms: int | None = None,
) -> list[tuple]:
    """The trace of one pinned run, positions traced as a ``--trace`` batch has them.

    ``schedule`` is the detector's ``(activation_delay_ms, check_period_ms)``;
    ``duration_ms`` replaces the pinned runs' 300 s.
    """
    scenario = replace(variants[label], trace_positions=True)
    if duration_ms is not None:
        scenario = replace(scenario, duration_ms=duration_ms)
    if node_max is not None:
        scenario = replace(scenario, ids=replace(scenario.ids, node_max=node_max))
    if schedule is not None:
        activation, period = schedule
        ids = replace(scenario.ids, activation_delay_ms=activation, check_period_ms=period)
        scenario = replace(scenario, ids=ids)
    return engine.run(scenario, seed)[1]


def digest(trace, path) -> str:
    """sha256 of the trace laid out by ``write_trace`` at ``path``."""
    write_trace(trace, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_tree(top) -> dict[str, bytes]:
    """Every file under ``top``, by '/'-separated relative path, with its bytes."""
    tree = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, top).replace(os.sep, "/")] = fh.read()
    return tree


def tree_digests(tree: dict[str, bytes]) -> dict[str, str]:
    return {path: hashlib.sha256(data).hexdigest() for path, data in sorted(tree.items())}


def pinned_batch(tmp: str, workers: int = 1) -> dict[str, bytes]:
    """The output tree of BATCH_CFG's traced batch, run in ``tmp``."""
    cfg = os.path.join(tmp, "headline-300s.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(BATCH_CFG)
    out = os.path.join(tmp, "out")
    cli.run_batch(cfg, out, keep_traces=True, workers=workers)
    return output_tree(out)


def _name(
    label: str,
    seed: int,
    node_max: int | None,
    schedule: tuple[int, int] | None,
    duration_ms: int | None,
) -> str:
    name = f"{label}-s{seed}" + ("" if node_max is None else f"-node_max{node_max}")
    name += "" if schedule is None else "-checks{}+{}ms".format(*schedule)
    return name + ("" if duration_ms is None else f"-{duration_ms // 1000}s")


def check_here() -> bool:
    """Replay every pin under this interpreter; print one line per pin."""
    interpreter = f"{platform.python_implementation()} {platform.python_version()}"
    variants = pinned_variants()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for run, want in PINS.items():
            got = digest(pinned_run(variants, *run), os.path.join(tmp, "t.tsv"))
            ok &= got == want
            verdict = "pass" if got == want else "FAIL"
            print(f"{verdict} {_name(*run)} ({interpreter})", flush=True)
        got_tree = tree_digests(pinned_batch(tmp))
        for path in sorted(set(TREE_PINS) | set(got_tree)):
            same = got_tree.get(path) == TREE_PINS.get(path)
            ok &= same
            print(f"{'pass' if same else 'FAIL'} batch/{path} ({interpreter})", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.pins", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--python", action="append", default=[], metavar="PATH",
        help="interpreter to replay the pins under; repeat for several",
    )
    args = parser.parse_args(argv)
    if not args.python:
        return 0 if check_here() else 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    failed = []
    for python in args.python:
        print(f"# {python}", flush=True)
        try:
            code = subprocess.run([python, "-m", "tests.pins"], cwd=ROOT, env=env).returncode
        except OSError as exc:  # no such interpreter, or not executable
            print(exc, flush=True)
            code = 1
        if code:
            failed.append(python)
    for python in failed:
        print(f"FAIL under {python}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
