"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The headline scenario is the 16-sensor / 4-attacker, 150 m x 150 m,
30-minute setup with data every 60 s, attack launch at 90 s, detector
activation at 120 s and a 30 s check period, evaluated over ten seeds.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
import trace as trace_tool
import types
from dataclasses import replace

import pytest

from rplsim import engine, metrics, rpl
from rplsim.config import ScenarioConfig, make_variant
from rplsim.outliers import compute_quartiles
from rplsim.radio import RadioConfig
from rplsim.rpl import Role
from tests import ids_conformance
from tests.test_outliers import WORKED_COLUMNS, detector_outliers, oracle_quartiles

SEEDS = tuple(range(1, 11))
INTERVALS = (1000, 2000, 3000, 4000)

BASE = ScenarioConfig(
    name="acceptance",
    duration_ms=1_800_000,
    n_sensors=16,
    n_attackers=4,
    radio=RadioConfig(tx_range_m=65.0),
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_cell(mode: str, mobility: str, interval_ms: int = 1000):
    scenario = make_variant(BASE, mode, mobility, interval_ms)
    return [engine.run(scenario, seed)[0] for seed in SEEDS]


def run_metrics(job):
    """One run in a pool worker; only its metrics travel back."""
    scenario, seed = job
    return engine.run(scenario, seed)[0]


class Grid:
    """All acceptance runs, computed once and shared by the criteria.

    Criterion 3 times the 20 static baseline and attack runs, so they run
    serially here; the other 100 runs then share a process pool.
    """

    def __init__(self):
        t0 = time.monotonic()
        self.static_baseline = run_cell("baseline", "static")
        self.static_attack = run_cell("attack", "static", 1000)
        self.headline_seconds = time.monotonic() - t0
        clean = replace(
            make_variant(BASE, "baseline", "static"),
            ids_enabled=True,
            name="acceptance-clean",
        )
        cells = [make_variant(BASE, "cosec", "static", iv) for iv in INTERVALS]
        cells.append(make_variant(BASE, "attack", "mobile", 1000))
        cells += [make_variant(BASE, "cosec", "mobile", iv) for iv in INTERVALS]
        cells.append(clean)
        jobs = [(scenario, seed) for scenario in cells for seed in SEEDS]
        with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
            flat = pool.map(run_metrics, jobs, chunksize=1)
        runs = [flat[i : i + len(SEEDS)] for i in range(0, len(flat), len(SEEDS))]
        self.static_cosec = dict(zip(INTERVALS, runs[:4]))
        self.mobile_attack = runs[4]
        self.mobile_cosec = dict(zip(INTERVALS, runs[5:9]))
        self.static_clean_ids = runs[9]


@pytest.fixture(scope="module")
def grid():
    return Grid()


def mean_of(runs, attr):
    return statistics.mean(getattr(m, attr) for m in runs)


def test_criterion_1_worked_quartile_columns():
    t0 = time.monotonic()
    for sample, med, q1, q3, iqr, upper, flagged in WORKED_COLUMNS:
        s = compute_quartiles(sample, delta=1.0)
        assert (s.median, s.q1, s.q3, s.iqr, s.upper_limit) == (med, q1, q3, iqr, upper)
        outliers = detector_outliers(enumerate(sample), delta=1.0)
        assert bool(outliers) == flagged
        if flagged:
            assert outliers == {sample.index(max(sample))}
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed < 1.0,
        f"all 12 worked columns bit-exact in {elapsed:.3f}s",
    )


def _executable_function_lines(module) -> set[int]:
    """Line numbers of every function/method body defined in the module.

    Each code object's first line (its ``def`` or decorator) is left out:
    from Python 3.11 the RESUME instruction maps to it, and ``sys.settrace``
    never reports that line.  Every body line stays required.
    """
    lines: set[int] = set()
    seen: set = set()

    def add(code) -> None:
        if code in seen or code.co_filename != module.__file__:
            return
        seen.add(code)
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                lines.add(line)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const)

    def maybe(obj) -> None:
        fn = None
        if isinstance(obj, types.FunctionType):
            fn = obj
        elif isinstance(obj, property) and isinstance(obj.fget, types.FunctionType):
            fn = obj.fget
        elif isinstance(obj, (staticmethod, classmethod)):
            fn = obj.__func__
        if fn is not None and getattr(fn, "__module__", None) == module.__name__:
            add(fn.__code__)

    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                maybe(attr)
        else:
            maybe(obj)
    return lines


def test_criterion_2_state_machine_conformance():
    from rplsim import ids as ids_module

    t0 = time.monotonic()
    tracer = trace_tool.Trace(count=1, trace=0)
    tracer.runfunc(ids_conformance.run_all)
    elapsed = time.monotonic() - t0

    counts = tracer.results().counts
    executed = {line for (fname, line), hits in counts.items() if fname == ids_module.__file__ and hits}
    expected = _executable_function_lines(ids_module)
    missing = sorted(expected - executed)
    report(
        2,
        not missing and elapsed < 10.0,
        f"{len(ids_conformance.SCENARIOS)} golden scenarios, "
        f"{len(expected)} executable detector lines all covered "
        f"(missing={missing}) in {elapsed:.2f}s",
    )


def test_criterion_3_attack_impact(grid):
    base = mean_of(grid.static_baseline, "pdr")
    attack = mean_of(grid.static_attack, "pdr")
    gap = base - attack
    ok = gap >= 0.20 and grid.headline_seconds < 300.0
    report(
        3,
        ok,
        f"static mean PDR {base:.3f} -> {attack:.3f} under attack "
        f"(gap {gap * 100:.1f}pp, runs took {grid.headline_seconds:.0f}s)",
    )


def test_criterion_4_defense_recovery(grid):
    base = mean_of(grid.static_baseline, "pdr")
    attack = mean_of(grid.static_attack, "pdr")
    cosec = mean_of(grid.static_cosec[1000], "pdr")
    recovered = (cosec - attack) / (base - attack)
    mob_attack_delay = mean_of(grid.mobile_attack, "ae2ed_ms")
    mob_cosec_delay = mean_of(grid.mobile_cosec[1000], "ae2ed_ms")
    ok = recovered >= 0.5 and mob_cosec_delay < mob_attack_delay
    report(
        4,
        ok,
        f"static PDR recovery {recovered * 100:.0f}% of the gap "
        f"({attack:.3f} -> {cosec:.3f} vs baseline {base:.3f}); mobile AE2ED "
        f"{mob_cosec_delay / 1000:.3f}s protected vs {mob_attack_delay / 1000:.3f}s attacked",
    )


def test_criterion_5_detection_accuracy(grid):
    static_ada = metrics.aggregate([m.ada for m in grid.static_cosec[1000]]).mean
    mobile_ada = metrics.aggregate([m.ada for m in grid.mobile_cosec[1000]]).mean
    ok = static_ada is not None and static_ada >= 0.8
    ok = ok and mobile_ada is not None and mobile_ada >= 0.5
    report(
        5,
        ok,
        f"mean ADA static {static_ada:.3f} (>= 0.8), mobile {mobile_ada:.3f} (>= 0.5)",
    )


def test_criterion_6_response_time(grid):
    horizon = BASE.duration_ms, BASE.attacker.attack_start_ms
    means = {}
    for label, cells in (("static", grid.static_cosec), ("mobile", grid.mobile_cosec)):
        means[label] = [
            statistics.mean(metrics.censored_frt_values(cells[iv], *horizon)) / 1000
            for iv in (1000, 2000, 3000, 4000)
        ]
    monotone = all(
        means[label][i] <= means[label][i + 1] + 1e-9
        for label in means
        for i in range(3)
    )
    undetected = sum(
        1
        for cells in (grid.static_cosec[1000], grid.mobile_cosec[1000])
        for m in cells
        for value in m.frt_ms.values()
        if value is None
    )
    ok = monotone and undetected == 0
    report(
        6,
        ok,
        "censored mean FRT by replay interval 1..4s: "
        f"static {[round(v, 1) for v in means['static']]}s, "
        f"mobile {[round(v, 1) for v in means['mobile']]}s; "
        f"undetected 1s-replay attackers: {undetected}",
    )


def test_criterion_7_false_positive_safety(grid):
    blocks = sum(m.legit_blocks for m in grid.static_clean_ids)
    suspicions = [m.false_suspicions for m in grid.static_clean_ids]
    report(
        7,
        blocks == 0,
        f"attack-free static runs: {blocks} legitimate permanent blocks, "
        f"false suspicions per run {suspicions}",
    )


def test_criterion_8_determinism(tmp_path):
    scenario = make_variant(BASE, "cosec", "static", 1000)
    m1, t1 = engine.run(scenario, SEEDS[0])
    m2, t2 = engine.run(scenario, SEEDS[0])
    rows_equal = metrics.run_csv_row("x", SEEDS[0], m1) == metrics.run_csv_row(
        "x", SEEDS[0], m2
    )
    from rplsim.trace import write_trace

    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    write_trace(t1, paths[0])
    write_trace(t2, paths[1])
    same_bytes = paths[0].read_bytes() == paths[1].read_bytes()
    report(
        8,
        t1 == t2 and m1 == m2 and rows_equal and same_bytes,
        f"repeated run: {len(t1)} trace records and CSV rows byte-identical",
    )


def test_criterion_9_property_suites():
    import random

    rng = random.Random(90_210)
    for _ in range(1000):
        n = rng.randint(1, 50)
        sample = [rng.randint(0, 2000) for _ in range(n)]
        shuffled = sample[:]
        rng.shuffle(shuffled)
        shift = rng.randint(0, 500)
        s = compute_quartiles(sample, 1.0)
        assert (s.median, s.q1, s.q3, s.iqr, s.upper_limit) == oracle_quartiles(sample, 1.0)
        assert compute_quartiles(shuffled, 1.0) == s
        moved = compute_quartiles([v + shift for v in sample], 1.0)
        assert moved.upper_limit == s.upper_limit + shift
        assert moved.iqr == s.iqr
        outliers = detector_outliers(enumerate(sample), 1.0)
        assert len(outliers) < n

    # loop freedom and trickle bounds on random 20-node topologies
    for seed in (21, 22):
        sc = ScenarioConfig(
            name="acc-props",
            duration_ms=400_000,
            n_sensors=20,
            n_attackers=0,
            radio=RadioConfig(base_loss=0.0, congestion_model="none"),
        )
        sim = engine.Simulation(sc, seed)
        _, trace = sim.run()
        assert not [rec for rec in trace if rec[2] == "loop_drop"]
        for node in sim.nodes.values():
            ts = node.trickle
            assert rpl.TRICKLE_IMIN_MS <= ts.interval_ms <= rpl.TRICKLE_IMAX_MS
            if node.role is Role.SENSOR:
                assert node.joined
                parent = node.preferred_parent
                assert node.candidates[parent].advertised_rank < node.rank

    # lossless static convergence delivers everything generated afterwards
    sc = ScenarioConfig(
        name="acc-lossless",
        duration_ms=600_000,
        n_sensors=16,
        n_attackers=0,
        radio=RadioConfig(base_loss=0.0, congestion_model="none"),
    )
    _, trace = engine.run(sc, 23)
    converged = max(rec[0] for rec in trace if rec[2] == "parent_switch")
    sent = {
        (rec[1], rec[3]) for rec in trace if rec[2] == "data_sent" and rec[0] > converged
    }
    delivered = {(rec[3], rec[4]) for rec in trace if rec[2] == "data_delivered"}
    assert sent and sent <= delivered
    report(
        9,
        True,
        "1000 quartile oracle cases, loop-freedom/trickle bounds on random "
        "20-node topologies, and lossless post-convergence delivery all hold",
    )
