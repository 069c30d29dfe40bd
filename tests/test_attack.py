"""Tests for the replay attacker."""

from __future__ import annotations

import ast
import logging
import math
import os
import random
from dataclasses import replace

import pytest

from rplsim import attack, engine
from rplsim.attack import AttackerConfig, AttackerState, attacker_step, place
from rplsim.config import ScenarioConfig, load_batch
from rplsim.radio import RadioConfig
from rplsim.rpl import DioMessage

HEADLINE = os.path.join(os.path.dirname(__file__), "..", "configs", "headline.cfg")


def make_attacker(interval=1000):
    cfg = AttackerConfig(replay_interval_ms=interval)
    return 9, AttackerState(cfg)


DIO_A = DioMessage(src=1, version=1, rank=256)
DIO_B = DioMessage(src=2, version=1, rank=384)


def payload(addr, state, now):
    dio, next_ms = attacker_step(addr, state, now)
    assert next_ms == now + state.config.replay_interval_ms  # from the start on
    return dio


class TestCapture:
    def test_nothing_captured_is_silent(self):
        addr, state = make_attacker()
        assert attacker_step(addr, state, 95_000) == (None, 96_000)  # the cadence holds

    def test_first_heard_wins(self):
        addr, state = make_attacker()
        state.overhear(DIO_A)
        state.overhear(DIO_B)
        out = payload(addr, state, 90_000)
        assert out.rank == DIO_A.rank

    def test_payload_frozen_once_replaying(self):
        addr, state = make_attacker()
        state.overhear(DIO_A)
        first = payload(addr, state, 90_000)
        state.overhear(DIO_B)
        second = payload(addr, state, 91_000)
        assert (first.rank, first.version) == (second.rank, second.version)

    def test_a_newer_version_replaces_the_capture(self):
        addr, state = make_attacker()
        state.overhear(DIO_A)
        first = payload(addr, state, 90_000)
        newer = DioMessage(src=2, version=2, rank=512)
        state.overhear(newer)
        state.overhear(replace(newer, src=3, rank=640))  # same version: kept out
        second = payload(addr, state, 91_000)
        assert (first.version, first.rank) == (1, DIO_A.rank)
        assert (second.src, second.version, second.rank) == (addr, 2, 512)
        state.overhear(DIO_B)  # an older version does not bring it back
        assert payload(addr, state, 92_000) is second

    def test_a_same_version_dio_keeps_the_replay(self):
        addr, state = make_attacker()
        state.overhear(DIO_A)
        first = payload(addr, state, 90_000)
        state.overhear(DIO_B)
        assert payload(addr, state, 91_000) is first

    def test_replay_is_non_spoofed(self):
        addr, state = make_attacker()
        state.overhear(DIO_A)
        out = payload(addr, state, 90_000)
        assert out.src == addr != DIO_A.src


class TestTiming:
    def test_silent_before_attack_start(self):
        addr, state = make_attacker()
        state.overhear(DIO_A)
        # before the start the next tick is the start itself, whatever the time
        for now in (-1, 0, 45_000, 89_999):
            assert attacker_step(addr, state, now) == (None, 90_000)
        assert payload(addr, state, 90_000) is not None

    @pytest.mark.parametrize("interval", [1000, 3000])
    def test_next_tick_is_one_interval_on_while_nothing_is_captured(self, interval):
        addr, state = make_attacker(interval)
        assert attacker_step(addr, state, 90_000) == (None, 90_000 + interval)
        state.overhear(DIO_A)
        assert attacker_step(addr, state, 93_500)[1] == 93_500 + interval

    def test_config_validation(self):
        with pytest.raises(ValueError, match="replay_interval_ms"):
            AttackerConfig(replay_interval_ms=0)
        with pytest.raises(ValueError, match="attack_start_ms"):
            AttackerConfig(attack_start_ms=-1)


class TestPlace:
    """``attack.place`` is pure: anchors, reach, area, count and a stream in, positions out."""

    AREA = (150.0, 150.0)

    def test_each_index_lands_in_its_own_quadrant(self):
        # anchors at every quadrant's centre, so no attacker is stranded
        anchors = [[37.5, 37.5], [112.5, 37.5], [37.5, 112.5], [112.5, 112.5]]
        placed, stranded = place(anchors, 65.0, self.AREA, 5, random.Random(1))
        assert stranded == []
        quadrants = [(int(x // 75.0), int(y // 75.0)) for x, y in placed]
        assert quadrants == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]

    def test_empty_anchors_leave_every_index_stranded(self):
        rng = random.Random(2)
        placed, stranded = place([], 65.0, self.AREA, 4, rng)
        assert stranded == [0, 1, 2, 3] and len(placed) == 4
        # each one spent its whole budget: two draws per try
        spent = random.Random(2)
        for _ in range(4 * 100 * 2):
            spent.random()
        assert rng.getstate() == spent.getstate()

    def test_no_attackers_draw_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert place([[1.0, 1.0]], 65.0, self.AREA, 0, rng) == ([], [])
        assert rng.getstate() == state

    def test_a_later_attacker_prefers_an_anchor_no_earlier_one_reaches(self):
        # two anchors deep in the first quadrant, out of every other
        # quadrant's reach: attackers 1-3 are stranded, and the fifth, back
        # in the first quadrant, must settle by the anchor the first misses
        anchors, reach = [[15.0, 15.0], [45.0, 45.0]], 20.0
        for seed in range(20):
            placed, stranded = place(anchors, reach, self.AREA, 5, random.Random(seed))
            assert stranded == [1, 2, 3]
            first, fifth = placed[0], placed[4]
            mine = [a for a in anchors if math.dist(fifth, a) <= 0.8 * reach]
            assert mine and all(math.dist(first, a) > reach for a in mine)


def test_attack_imports_only_rpl_from_the_package():
    """The attacker stays pure: it imports RPL's message and no engine, radio or detector."""
    with open(attack.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                assert (node.level, node.module) == (1, "rpl"), ast.unparse(node)
                continue
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert all(name.split(".")[0] != "rplsim" for name in names), ast.unparse(node)


def chain_scenario(duration_ms):
    # root, one sensor, one attacker all mutually in range; lossless radio
    return ScenarioConfig(
        name="pair",
        duration_ms=duration_ms,
        n_sensors=1,
        n_attackers=1,
        positions=((0, 0.0, 0.0), (1, 30.0, 0.0), (2, 30.0, 20.0)),
        radio=RadioConfig(tx_range_m=50.0, base_loss=0.0, congestion_model="none"),
        ids_enabled=True,
    )


class TestEndToEnd:
    def test_sixty_replays_in_sixty_seconds(self):
        sim = engine.Simulation(chain_scenario(150_000), seed=3)
        _, trace = sim.run()
        replays = [
            rec for rec in trace if rec[2] == "dio_sent" and rec[1] == 2 and rec[0] < 150_000
        ]
        assert len(replays) == 60
        assert all(rec[0] >= 90_000 for rec in replays)
        # byte-identical payload across the run
        assert len({rec[3:] for rec in replays}) == 1

    def test_attacker_stays_isolated(self):
        sim = engine.Simulation(chain_scenario(200_000), seed=3)
        _, trace = sim.run()
        assert 2 not in sim.nodes  # no routing state at all
        sent_kinds = {rec[2] for rec in trace if rec[1] == 2}
        assert "dis_sent" not in sent_kinds
        assert "dao_sent" not in sent_kinds
        assert "data_sent" not in sent_kinds

    def test_victim_sees_replay_interval_gap(self):
        sim = engine.Simulation(chain_scenario(150_000), seed=3)
        sim.run()
        entry = sim.detectors[1].neighbors[2]
        assert entry.t_recent - entry.t_previous == 1000
        assert entry.dio_count >= 55  # lossless: every replay is counted


class TestPlacementWarning:
    """A random attacker placement with no well-connected node near it is logged."""

    @staticmethod
    def build(seed):
        batch = load_batch(HEADLINE)
        scenario = next(sc for label, sc, _ in batch.variants() if label == "static-attack-r1s")
        return engine.Simulation(scenario, seed)

    def test_attacker_far_from_every_anchor_warns_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="rplsim"):
            self.build(23)
        assert [rec.getMessage() for rec in caplog.records] == [
            "seed 23: attacker 20 has no well-connected node within 0.8 x range"
        ]

    def test_well_placed_attackers_stay_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="rplsim"):
            self.build(1)
        assert caplog.records == []


class TestSparseHearers:
    """The quartile fence cannot single out an attacker that only sparse nodes hear.

    Random placement can leave an attacker with no well-connected node in
    earshot; this pins what the detector does then.  Node 2 alone hears the
    attacker, 35 m away; the other nodes hear only their legitimate
    neighbours.
    """

    SPARSE = ((0, 20.0, 0.0), (1, 60.0, 0.0), (2, 100.0, 0.0), (3, 140.0, 0.0), (4, 100.0, 40.0))
    # three more sensors around node 2, none within range of the attacker
    DENSE = SPARSE + ((5, 120.0, 20.0), (6, 80.0, 20.0), (7, 100.0, 20.0))

    def run(self, legit, seed):
        attacker = len(legit)
        sc = ScenarioConfig(
            name="sparse",
            duration_ms=1_800_000,
            n_sensors=attacker - 1,
            n_attackers=1,
                positions=legit + ((attacker, 100.0, -35.0),),
            radio=RadioConfig(tx_range_m=50.0, base_loss=0.0, congestion_model="none"),
            ids_enabled=True,
        )
        sim = engine.Simulation(sc, seed)
        _, trace = sim.run()
        hearers = [i for i in sim.nodes if i != attacker and attacker in sim._in_range[i]]
        assert hearers == [2]
        suspects = {rec[3] for rec in trace if rec[2] == "ids_suspect"}
        return sim, attacker, suspects

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_attacker_heard_only_by_a_degree_three_node_is_never_suspected(self, seed):
        sim, attacker, suspects = self.run(self.SPARSE, seed)
        assert len(sim._in_range[2]) - 1 == 3  # legitimate neighbours of the hearer
        # heard all run long, yet the fence never flags it
        assert sim.detectors[2].neighbors[attacker].dio_count > 1500
        assert suspects == set()

    def test_the_same_replay_is_flagged_once_the_hearer_has_six_neighbours(self):
        sim, attacker, suspects = self.run(self.DENSE, 1)
        assert len(sim._in_range[2]) - 1 == 6
        assert suspects == {attacker}
