"""Pinned trace digests, and one command that replays them on any interpreter.

Four 300 s runs of ``configs/headline.cfg``, each traced the way a
``--trace`` batch writes it (positions on, through ``write_trace``), are
hashed and compared with sha256 digests recorded before the hot path they
guard was last optimised.  The fourth shrinks the detector tables to
``node_max = 8`` so that the overflow path runs too: when it was recorded
it emitted 4,361 ``ids_overflow``, 175 ``ids_discard``, 13 ``ids_suspect``
and 3 ``ids_block`` records.  A change that is meant to alter the
behaviour updates these digests and says why.

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

from rplsim import engine
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

# every pinned run, (label, seed, node_max) -> digest
PINS = {**{key + (None,): digest for key, digest in PINNED.items()}, OVERFLOW_RUN: OVERFLOW_PIN}


def pinned_variants() -> dict:
    """The headline variants by label, cut to the pinned runs' duration."""
    batch = load_batch(HEADLINE)
    batch = replace(batch, base=replace(batch.base, duration_ms=DURATION_MS))
    return {label: scenario for label, scenario, _ in batch.variants()}


def pinned_run(variants: dict, label: str, seed: int, node_max: int | None = None) -> list[tuple]:
    """The trace of one pinned run, positions traced as a ``--trace`` batch has them."""
    scenario = replace(variants[label], trace_positions=True)
    if node_max is not None:
        scenario = replace(scenario, ids=replace(scenario.ids, node_max=node_max))
    return engine.run(scenario, seed)[1]


def digest(trace, path) -> str:
    """sha256 of the trace laid out by ``write_trace`` at ``path``."""
    write_trace(trace, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _name(label: str, seed: int, node_max: int | None) -> str:
    return f"{label}-s{seed}" + ("" if node_max is None else f"-node_max{node_max}")


def check_here() -> bool:
    """Replay every pin under this interpreter; print one line per pin."""
    interpreter = f"{platform.python_implementation()} {platform.python_version()}"
    variants = pinned_variants()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for (label, seed, node_max), want in PINS.items():
            got = digest(pinned_run(variants, label, seed, node_max), os.path.join(tmp, "t.tsv"))
            ok &= got == want
            verdict = "pass" if got == want else "FAIL"
            print(f"{verdict} {_name(label, seed, node_max)} ({interpreter})", flush=True)
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
