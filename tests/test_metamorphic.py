"""Metamorphic relations: pairs of runs whose traces must agree once the
records that one side adds are removed.

Each relation runs the headline scenario (16 sensors, 4 attackers, 65 m
range) for 300 s of simulated time, static and mobile, seeds 1 and 2.  A
feature that draws from another subsystem's random stream, or changes what
the protocol does while it only claims to observe, breaks the relation.
The batch relation compares whole output trees instead: the number of
workers and how they are started must not change a byte.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

from rplsim import cli, engine
from rplsim.config import ScenarioConfig, make_variant
from rplsim.radio import RadioConfig

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


BATCH_CFG = """
[scenario]
name = headline
duration_s = 300
modes = baseline attack cosec
mobility_modes = static mobile
replay_intervals_s = 1
seeds = 1 2

[radio]
tx_range_m = 65
"""


def output_tree(top):
    """Every file under ``top``, by relative path, with its bytes."""
    tree = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, top)] = fh.read()
    return tree


@pytest.fixture(scope="module")
def batch_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("batch") / "headline-300s.cfg"
    path.write_text(BATCH_CFG)
    return str(path)


@pytest.fixture(scope="module")
def serial_tree(batch_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("serial") / "out"
    cli.run_batch(batch_cfg, str(out), keep_traces=True, workers=1)
    return output_tree(out)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_count_and_start_method_do_not_change_outputs(
    method, batch_cfg, serial_tree, tmp_path, monkeypatch
):
    """A traced batch on two workers writes the serial batch's tree."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(cli.multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    out = tmp_path / "out"
    cli.run_batch(batch_cfg, str(out), keep_traces=True, workers=2)
    assert sorted(serial_tree) == sorted(
        ["runs.csv", "summary.csv"]
        + [f"plot_{figure}.dat" for figure in ("pdr", "ae2ed", "ada", "frt")]
        + [
            os.path.join("traces", f"{mob}-{variant}-s{seed}.tsv")
            for mob in ("static", "mobile")
            for variant in ("baseline", "attack-r1s", "cosec-r1s")
            for seed in (1, 2)
        ]
    )
    assert output_tree(out) == serial_tree
