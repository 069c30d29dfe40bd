"""Tests for the RPL node model: objective function, trickle, DIO handling."""

from __future__ import annotations

import ast
import random

import pytest

from rplsim import rpl
from rplsim.rpl import (
    MIN_RANK,
    Candidate,
    DioMessage,
    NodeState,
    Role,
    TRICKLE_DOUBLINGS,
    TRICKLE_IMAX_MS,
    TRICKLE_IMIN_MS,
    TrickleState,
    global_repair,
    handle_dio,
    handle_dis,
    note_link_outcome,
    note_probe_result,
    objective_function,
    select_parent,
    trickle_after_fire,
    trickle_reset,
)


def make_sensor(node_id=5, rank=None, parent=None):
    node = NodeState(id=node_id, role=Role.SENSOR)
    node.rank = rank
    node.preferred_parent = parent
    return node


class TestObjectiveFunction:
    def test_single_candidate(self):
        assert objective_function([(3, 128, 1.0)]) == (3, 256)

    def test_tie_breaks_on_lowest_address(self):
        got = objective_function([(7, 256, 1.0), (4, 256, 1.0)])
        assert got == (4, 384)

    def test_empty_candidates(self):
        assert objective_function([]) is None

    def test_hysteresis_keeps_current_parent(self):
        # alternative is better by less than the hysteresis margin
        got = objective_function(
            [(1, 512, 1.0), (2, 450, 1.0)], current=(1, 640)
        )
        assert got == (1, 640)
        # a strictly-beyond-margin win does switch
        got = objective_function([(1, 512, 1.0), (2, 256, 1.0)], current=(1, 640))
        assert got == (2, 384)

    def test_etx_weights_mrhof_cost(self):
        # same advertised rank; the cleaner link wins despite higher address
        got = objective_function([(2, 256, 3.0), (9, 256, 1.0)])
        assert got == (9, 384)


class TestTrickle:
    def test_interval_doubles_to_cap(self):
        ts = TrickleState()
        rng = random.Random(7)
        now = trickle_reset(ts, 0, rng)
        seen = []
        for _ in range(12):
            seen.append(ts.interval_ms)
            now = trickle_after_fire(ts, now, rng)
        assert seen[:4] == [TRICKLE_IMIN_MS << d for d in range(4)]
        assert seen == sorted(seen)
        assert max(seen) == TRICKLE_IMAX_MS == TRICKLE_IMIN_MS << TRICKLE_DOUBLINGS
        assert ts.interval_ms == TRICKLE_IMAX_MS

    def test_reset_returns_to_minimum(self):
        ts = TrickleState()
        rng = random.Random(3)
        now = trickle_reset(ts, 0, rng)
        for _ in range(6):
            now = trickle_after_fire(ts, now, rng)
        assert ts.interval_ms > TRICKLE_IMIN_MS
        trickle_reset(ts, 500_000, rng)
        assert ts.interval_ms == TRICKLE_IMIN_MS
        assert ts.counter == 0

    def test_fire_point_in_second_half(self):
        ts = TrickleState()
        rng = random.Random(11)
        for start in (0, 10_000, 250_000):
            fire = trickle_reset(ts, start, rng)
            assert start + ts.interval_ms // 2 <= fire <= start + ts.interval_ms

    def test_generation_bumps_invalidate_pending_fires(self):
        ts = TrickleState()
        rng = random.Random(1)
        g0 = ts.generation
        trickle_reset(ts, 0, rng)
        assert ts.generation == g0 + 1


class TestHandleDio:
    def test_isolated_sensor_joins_after_probe(self):
        node = make_sensor()
        dio = DioMessage(src=0, version=1, rank=MIN_RANK)
        actions = handle_dio(node, dio)
        assert ("probe", 0) in actions
        assert not node.joined

        actions = note_probe_result(node, 0, True)
        assert ("parent_switch", None, 0) in actions
        assert ("send_dao", 0) in actions
        assert ("trickle_reset",) in actions
        assert node.rank == MIN_RANK + 128
        assert node.preferred_parent == 0

    def test_max_depth_rule(self):
        node = make_sensor(rank=256, parent=0)
        node.candidates[0] = Candidate(addr=0, advertised_rank=128, version=1, confirmed=True)
        deep = DioMessage(src=9, version=1, rank=256)
        handle_dio(node, deep)
        note_probe_result(node, 9, True)
        assert node.preferred_parent == 0
        assert node.rank == 256

    def test_stale_version_ignored(self):
        node = make_sensor(rank=256, parent=0)
        node.version = 3
        assert handle_dio(node, DioMessage(src=2, version=2, rank=128)) == []
        assert 2 not in node.candidates

    def test_new_version_restarts_join(self):
        node = make_sensor(rank=256, parent=0)
        actions = handle_dio(node, DioMessage(src=0, version=2, rank=128))
        assert ("trickle_reset",) in actions
        assert node.version == 2
        assert node.rank is None and node.preferred_parent is None

    def test_own_dio_ignored(self):
        node = make_sensor()
        assert handle_dio(node, DioMessage(src=node.id, version=1, rank=128)) == []

    def test_consistent_dio_counts_toward_suppression(self):
        node = make_sensor(rank=256, parent=0)
        node.candidates[0] = Candidate(addr=0, advertised_rank=128, version=1, confirmed=True)
        before = node.trickle.counter
        handle_dio(node, DioMessage(src=0, version=1, rank=128))
        assert node.trickle.counter == before + 1

    def test_root_tracks_but_never_selects(self):
        root = NodeState(id=0, role=Role.ROOT)
        handle_dio(root, DioMessage(src=4, version=1, rank=256))
        assert root.preferred_parent is None
        assert root.rank == MIN_RANK
        assert 4 in root.candidates


class TestLinkMaintenance:
    def test_chain_failure_requests_liveness_probe(self):
        node = make_sensor(rank=256, parent=0)
        node.candidates[0] = Candidate(addr=0, advertised_rank=128, version=1, confirmed=True)
        actions = note_link_outcome(node, 0, attempts=2, delivered=False)
        assert ("probe", 0) in actions
        assert node.candidates[0].confirmed  # still trusted pending the probe

    def test_failed_probe_retires_link(self):
        node = make_sensor(rank=256, parent=0)
        node.candidates[0] = Candidate(addr=0, advertised_rank=128, version=1, confirmed=True)
        actions = note_probe_result(node, 0, False)
        assert not node.candidates[0].confirmed
        assert ("parent_lost",) in actions
        assert node.rank is None

    def test_parentless_node_triggers_repair_actions(self):
        node = make_sensor(rank=384, parent=7)
        node.candidates[7] = Candidate(addr=7, advertised_rank=256, version=1, confirmed=True)
        node.candidates[7].confirmed = False
        actions = select_parent(node)
        assert ("parent_lost",) in actions
        assert ("trickle_reset",) in actions


class TestDisAndRepair:
    def test_dis_resets_joined_nodes_only(self):
        joined = make_sensor(rank=256, parent=0)
        assert handle_dis(joined) == [("trickle_reset",)]
        unjoined = make_sensor()
        assert handle_dis(unjoined) == []

    def test_global_repair_bumps_version(self):
        root = NodeState(id=0, role=Role.ROOT)
        assert global_repair(root) == [("trickle_reset",)]  # the root advertises it at once
        assert root.version == 2
        assert root.rank == MIN_RANK


class TestLineTopologyOracle:
    def test_ranks_match_hop_distance(self):
        """Chain of nodes: rank must grow linearly with brute-force hops."""
        from rplsim.config import ScenarioConfig
        from rplsim.radio import RadioConfig
        from rplsim import engine

        positions = tuple((i, 40.0 * i, 0.0) for i in range(4))
        sc = ScenarioConfig(
            name="line",
            duration_ms=200_000,
            n_sensors=3,
            n_attackers=0,
            positions=positions,
            radio=RadioConfig(tx_range_m=50.0, base_loss=0.0, congestion_model="none"),
        )
        sim = engine.Simulation(sc, seed=4)
        sim.run()

        # independent oracle: BFS hop counts on the unit-disk line graph
        hops = {0: 0, 1: 1, 2: 2, 3: 3}
        for node_id, node in sim.nodes.items():
            assert node.rank == MIN_RANK * (hops[node_id] + 1)
        ranks = [sim.nodes[i].rank for i in range(4)]
        assert ranks == sorted(ranks)


class TestSettledSkip:
    """A settled node skips ``select_parent`` and must act as if it had run it."""

    CANDIDATES = range(1, 13)

    @staticmethod
    def snapshot(node):
        return (
            node.preferred_parent,
            node.rank,
            node.version,
            node.trickle.counter,
            {addr: vars(cand).copy() for addr, cand in node.candidates.items()},
        )

    def first_divergence(self, seed, before_call, calls=3000):
        """Drive a node and a twin that never skips with the same random calls.

        ``before_call(node)`` runs on the node under test before each call;
        the twin's ``settled`` is forced False.  Returns the index of the
        first call whose actions or resulting state differ, or None, and
        the number of ``select_parent`` runs each side made.
        """
        rng = random.Random(seed)
        node, twin = make_sensor(node_id=20), make_sensor(node_id=20)
        advertised = {addr: 128 + 64 * (addr % 6) for addr in self.CANDIDATES}
        runs = {id(node): 0, id(twin): 0}
        real_select = rpl.select_parent

        def counting_select(n):
            runs[id(n)] += 1
            return real_select(n)

        rpl.select_parent = counting_select
        try:
            for index in range(calls):
                addr = rng.choice(self.CANDIDATES)
                kind = rng.random()
                if kind < 0.5:
                    bump = rng.random()
                    version = node.version + (1 if bump < 0.01 else -1 if bump < 0.05 else 0)
                    if rng.random() < 0.1:  # most DIOs repeat the last advertisement
                        advertised[addr] = rng.choice(range(128, 1025, 64))
                    dio = DioMessage(addr, version, advertised[addr])
                    call = lambda n: handle_dio(n, dio)  # noqa: E731
                elif kind < 0.8:
                    ok = rng.random() < 0.4
                    call = lambda n: note_probe_result(n, addr, ok)  # noqa: E731
                else:
                    attempts, delivered = rng.randint(1, 2), rng.random() < 0.7
                    call = lambda n: note_link_outcome(n, addr, attempts, delivered)  # noqa: E731
                before_call(node)
                twin.settled = False
                if call(node) != call(twin) or self.snapshot(node) != self.snapshot(twin):
                    return index, runs[id(node)], runs[id(twin)]
        finally:
            rpl.select_parent = real_select
        return None, runs[id(node)], runs[id(twin)]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_matches_a_node_that_never_skips(self, seed):
        diverged, runs, twin_runs = self.first_divergence(seed, lambda node: None)
        assert diverged is None
        assert runs < 0.75 * twin_runs  # the skip really happened

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_skipping_on_unchanged_inputs_alone_is_caught(self, seed):
        # settled forced True: skip whenever the call wrote no input, the
        # rule that ignores the rank the last select_parent itself moved
        def naive(node):
            node.settled = True

        assert self.first_divergence(seed, naive)[0] is not None



def test_rpl_imports_nothing_from_the_package():
    """RPL holds routing only: the detector and the data path live elsewhere."""
    with open(rpl.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)  # no relative import
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert all(name.split(".")[0] != "rplsim" for name in names), ast.unparse(node)
