"""Metamorphic relations: pairs of runs whose traces must agree once the
records that one side adds are removed.

Each relation runs the headline scenario (16 sensors, 4 attackers, 65 m
range) for 300 s of simulated time, static and mobile, seeds 1 and 2.  A
feature that draws from another subsystem's random stream, or changes what
the protocol does while it only claims to observe, breaks the relation.
The batch relation compares whole output trees instead: the number of
workers and how they are started must not change a byte, and the serial
tree must match the digests pinned in ``tests/pins.py``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from rplsim import cli, engine
from rplsim.config import ScenarioConfig, make_variant
from rplsim.radio import RadioConfig

from . import pins

BASE = ScenarioConfig(
    name="headline", duration_ms=300_000, radio=RadioConfig(tx_range_m=65.0)
)
CELLS = [(mobility, seed) for mobility in ("static", "mobile") for seed in (1, 2)]


def trace_of(scenario, seed):
    return engine.run(scenario, seed)[1]


def without(trace, drop):
    return [rec for rec in trace if not drop(rec[2])]


@pytest.mark.parametrize("mobility,seed", CELLS)
def test_ids_that_never_blocks_does_not_perturb_the_run(mobility, seed):
    """cosec with an unreachable block threshold, minus its detector and
    run_info records, is the undefended attack run."""
    attack = make_variant(BASE, "attack", mobility, 1000)
    cosec = make_variant(BASE, "cosec", mobility, 1000)
    cosec = replace(cosec, ids=replace(cosec.ids, block_threshold=10**6))
    observed = trace_of(cosec, seed)
    assert any(rec[2] == "ids_suspect" for rec in observed)  # the detector ran
    assert without(observed, lambda kind: kind.startswith("ids_") or kind == "run_info") == (
        without(trace_of(attack, seed), lambda kind: kind == "run_info")
    )


@pytest.mark.parametrize("mobility,seed", CELLS)
def test_position_tracing_is_passive(mobility, seed):
    """Tracing positions adds position records and changes nothing else."""
    cosec = make_variant(BASE, "cosec", mobility, 1000)
    traced = trace_of(replace(cosec, trace_positions=True), seed)
    if mobility == "mobile":
        assert any(rec[2] == "position" for rec in traced)
    assert without(traced, lambda kind: kind == "position") == trace_of(cosec, seed)


@pytest.fixture(scope="module")
def serial_tree(tmp_path_factory):
    """The serial traced batch's output tree, checked against its pinned digests."""
    tree = pins.pinned_batch(str(tmp_path_factory.mktemp("serial")))
    assert pins.tree_digests(tree) == pins.TREE_PINS
    return tree


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_worker_count_and_start_method_do_not_change_outputs(
    method, serial_tree, tmp_path, monkeypatch
):
    """A traced batch on two workers writes the serial batch's tree."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(cli.multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    assert pins.pinned_batch(str(tmp_path), workers=2) == serial_tree
