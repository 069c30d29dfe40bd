"""Pinned trace bytes: a speed-up that moves one byte of a trace fails here.

Four 300 s runs of ``configs/headline.cfg``, each traced the way a
``--trace`` batch writes it (positions on, through ``write_trace``), are
hashed and compared with sha256 digests recorded before the hot path they
guard was last optimised.  The fourth shrinks the detector tables to
``node_max = 8`` so that the overflow path runs too: when it was recorded
it emitted 4,361 ``ids_overflow``, 175 ``ids_discard``, 13 ``ids_suspect``
and 3 ``ids_block`` records.  A change that is meant to alter the
behaviour updates these digests and says why.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import replace

import pytest

from rplsim import engine, metrics
from rplsim.config import load_batch
from rplsim.trace import write_trace

HEADLINE = os.path.join(os.path.dirname(__file__), "..", "configs", "headline.cfg")

PINNED = {
    ("static-attack-r1s", 1): "a278171119e1cbe0d165f986b2976d1a607d395e89a93f922ddbccf83048eae4",
    ("static-attack-r1s", 2): "44d011c6918cc9dd804eb5fd1dce23580177555bb985dd2b3d0cc5e47c504749",
    ("mobile-cosec-r1s", 1): "eb00603b28d69cbc1dcbb03eb17a901da11471404ee88454bffea2e8194048e7",
}
OVERFLOW_PIN = "e6c7a83170f011a3892029d78bfe43a0508ed7b00e6eeda718ed8cc1f38207f1"


@pytest.fixture(scope="module")
def run_trace():
    """``(label, seed, node_max=None) -> trace``, each run made once per module."""
    batch = load_batch(HEADLINE)
    batch = replace(batch, base=replace(batch.base, duration_ms=300_000))
    variants = {label: scenario for label, scenario, _ in batch.variants()}
    done = {}

    def trace(label, seed, node_max=None):
        if (label, seed, node_max) not in done:
            scenario = replace(variants[label], trace_positions=True)
            if node_max is not None:
                scenario = replace(scenario, ids=replace(scenario.ids, node_max=node_max))
            done[(label, seed, node_max)] = engine.run(scenario, seed)[1]
        return done[(label, seed, node_max)]

    return trace


def _digest(trace, path) -> str:
    write_trace(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("label,seed", sorted(PINNED))
def test_trace_bytes_are_pinned(run_trace, tmp_path, label, seed):
    digest = _digest(run_trace(label, seed), tmp_path / f"{label}-s{seed}.tsv")
    assert digest == PINNED[(label, seed)]


def test_overflowing_detector_trace_bytes_are_pinned(run_trace, tmp_path):
    digest = _digest(run_trace("static-cosec-r1s", 1, 8), tmp_path / "overflow.tsv")
    assert digest == OVERFLOW_PIN


@pytest.mark.parametrize(
    "label,seed,node_max", [*sorted(key + (None,) for key in PINNED), ("static-cosec-r1s", 1, 8)]
)
def test_one_pass_metrics_match_the_reference_functions(run_trace, label, seed, node_max):
    trace = run_trace(label, seed, node_max)
    truth = metrics.ground_truth(trace)
    got = metrics.from_trace(trace)
    kinds = Counter(rec[2] for rec in trace)
    assert got.pdr == metrics.compute_pdr(trace)
    assert got.ae2ed_ms == metrics.compute_ae2ed(trace)
    assert got.ada == metrics.compute_ada(trace, truth)
    assert got.frt_ms == metrics.compute_frt(trace, truth)
    assert got.block_ms == metrics.compute_frt(trace, truth, "ids_block")
    for field, kind in [
        ("dio_sent", "dio_sent"),
        ("dis_sent", "dis_sent"),
        ("dao_sent", "dao_sent"),
        ("data_sent", "data_sent"),
        ("data_delivered", "data_delivered"),
        ("overflow_events", "ids_overflow"),
        ("loop_drops", "loop_drop"),
    ]:
        assert getattr(got, field) == kinds[kind]
    attackers = truth.attacker_set
    assert got.false_suspicions == sum(
        1 for rec in trace if rec[2] == "ids_suspect" and rec[3] not in attackers
    )
    assert got.permanent_blocks_legit == sum(
        1 for rec in trace if rec[2] == "ids_block" and rec[3] not in attackers
    )
