"""Pinned trace bytes: a speed-up that moves one byte of a trace fails here.

Three 300 s runs of ``configs/headline.cfg``, each traced the way a
``--trace`` batch writes it (positions on, through ``write_trace``), are
hashed and compared with sha256 digests recorded before the hot path of
frame delivery was last optimised.  A change that is meant to alter the
behaviour updates these digests and says why.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace

import pytest

from rplsim import engine
from rplsim.config import load_batch
from rplsim.trace import write_trace

HEADLINE = os.path.join(os.path.dirname(__file__), "..", "configs", "headline.cfg")

PINNED = {
    ("static-attack-r1s", 1): "a278171119e1cbe0d165f986b2976d1a607d395e89a93f922ddbccf83048eae4",
    ("static-attack-r1s", 2): "44d011c6918cc9dd804eb5fd1dce23580177555bb985dd2b3d0cc5e47c504749",
    ("mobile-cosec-r1s", 1): "eb00603b28d69cbc1dcbb03eb17a901da11471404ee88454bffea2e8194048e7",
}


@pytest.fixture(scope="module")
def variants():
    batch = load_batch(HEADLINE)
    batch = replace(batch, base=replace(batch.base, duration_ms=300_000))
    return {label: scenario for label, scenario, _ in batch.variants()}


@pytest.mark.parametrize("label,seed", sorted(PINNED))
def test_trace_bytes_are_pinned(variants, tmp_path, label, seed):
    scenario = replace(variants[label], trace_positions=True)
    path = tmp_path / f"{label}-s{seed}.tsv"
    write_trace(engine.run(scenario, seed)[1], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[(label, seed)]
