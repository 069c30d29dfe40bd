"""Pinned trace bytes: a speed-up that moves one byte of a trace fails here.

The digests, the runs they pin and why are in ``tests/pins.py``, which also
replays them under other interpreters (``python -m tests.pins --python PATH``).
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from rplsim import metrics

from . import metrics_reference as reference
from . import pins
from .pins import (
    FULL_LENGTH_PIN,
    FULL_LENGTH_RUN,
    OVERFLOW_PIN,
    OVERFLOW_RUN,
    PINNED,
    SCHEDULE_PIN,
    SCHEDULE_RUN,
    digest,
    pinned_run,
    pinned_variants,
)


@pytest.fixture(scope="module")
def run_trace():
    """``(label, seed, node_max=None, schedule=None, duration_ms=None) -> trace``,
    each run made once per module."""
    variants = pinned_variants()
    done = {}

    def trace(label, seed, node_max=None, schedule=None, duration_ms=None):
        run = (label, seed, node_max, schedule, duration_ms)
        if run not in done:
            done[run] = pinned_run(variants, *run)
        return done[run]

    return trace


@pytest.mark.parametrize("label,seed", sorted(PINNED))
def test_trace_bytes_are_pinned(run_trace, tmp_path, label, seed):
    got = digest(run_trace(label, seed), tmp_path / f"{label}-s{seed}.tsv")
    assert got == PINNED[(label, seed)]


def test_overflowing_detector_trace_bytes_are_pinned(run_trace, tmp_path):
    got = digest(run_trace(*OVERFLOW_RUN), tmp_path / "overflow.tsv")
    assert got == OVERFLOW_PIN


def test_full_length_mobile_attack_trace_bytes_are_pinned(run_trace, tmp_path):
    got = digest(run_trace(*FULL_LENGTH_RUN), tmp_path / "full-length.tsv")
    assert got == FULL_LENGTH_PIN


def test_off_grid_detector_trace_bytes_are_pinned(run_trace, tmp_path):
    got = digest(run_trace(*SCHEDULE_RUN), tmp_path / "schedule.tsv")
    assert got == SCHEDULE_PIN


def test_pins_hold_with_asserts_stripped(monkeypatch, capfd):
    # PYTHONOPTIMIZE=1 is -O: no assert runs, so none may carry behaviour,
    # such as the event push, the inline strobe re-queue or the radio's
    # window check
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    assert pins.main(["--python", sys.executable]) == 0
    assert capfd.readouterr().out.count("pass ") == len(pins.PINS) + len(pins.TREE_PINS)


@pytest.mark.parametrize(
    "label,seed,node_max", [*sorted(key + (None,) for key in PINNED), OVERFLOW_RUN]
)
def test_one_pass_metrics_match_the_reference_functions(run_trace, label, seed, node_max):
    trace = run_trace(label, seed, node_max)
    check_one_pass_metrics(trace)


def test_one_pass_metrics_match_the_reference_functions_off_grid(run_trace):
    check_one_pass_metrics(run_trace(*SCHEDULE_RUN))


def check_one_pass_metrics(trace):
    got = metrics.from_trace(trace)
    kinds = Counter(rec[2] for rec in trace)
    assert got.pdr == reference.compute_pdr(trace)
    assert got.ae2ed_ms == reference.compute_ae2ed(trace)
    assert got.ada == reference.compute_ada(trace)
    assert got.frt_ms == reference.compute_frt(trace)
    assert got.block_ms == reference.compute_frt(trace, "ids_block")
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
    attackers = set(got.frt_ms)  # one key per attacker, checked just above
    assert got.false_suspicions == sum(
        1 for rec in trace if rec[2] == "ids_suspect" and rec[3] not in attackers
    )
    assert got.legit_blocks == sum(
        1 for rec in trace if rec[2] == "ids_block" and rec[3] not in attackers
    )
