"""The benchmark's wrapped runs still work against the current engine.

``perfbench/layers.py`` wraps engine and radio callables by name and reads
their arguments by position (``Radio.deliver``'s airtime and receivers, for
one).  A renamed callable or a reordered argument breaks a traced benchmark
repetition without failing any unit test, so one traced repetition per engine
workload runs here and must reproduce its recorded fingerprint.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
WORKLOADS = {"attack-static": "static-attack-r1s", "cosec-mobile": "mobile-cosec-r1s"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_repetition_matches_its_reference(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "rep.py"), "--workload", workload,
         "--sim-seeds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == {}
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][workload]["fingerprints"]
    name = f"{WORKLOADS[workload]}-s1"
    assert result["fingerprints"] == {name: reference[name]}
