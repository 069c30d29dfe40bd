"""Pinned trace bytes: a speed-up that moves one byte of a trace fails here.

The digests, the runs they pin and why are in ``tests/pins.py``, which also
replays them under other interpreters (``python -m tests.pins --python PATH``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from rplsim import metrics

from .pins import OVERFLOW_PIN, OVERFLOW_RUN, PINNED, digest, pinned_run, pinned_variants


@pytest.fixture(scope="module")
def run_trace():
    """``(label, seed, node_max=None) -> trace``, each run made once per module."""
    variants = pinned_variants()
    done = {}

    def trace(label, seed, node_max=None):
        if (label, seed, node_max) not in done:
            done[(label, seed, node_max)] = pinned_run(variants, label, seed, node_max)
        return done[(label, seed, node_max)]

    return trace


@pytest.mark.parametrize("label,seed", sorted(PINNED))
def test_trace_bytes_are_pinned(run_trace, tmp_path, label, seed):
    got = digest(run_trace(label, seed), tmp_path / f"{label}-s{seed}.tsv")
    assert got == PINNED[(label, seed)]


def test_overflowing_detector_trace_bytes_are_pinned(run_trace, tmp_path):
    got = digest(run_trace(*OVERFLOW_RUN), tmp_path / "overflow.tsv")
    assert got == OVERFLOW_PIN


@pytest.mark.parametrize(
    "label,seed,node_max", [*sorted(key + (None,) for key in PINNED), OVERFLOW_RUN]
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
