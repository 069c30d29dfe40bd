"""Tests for propagation, congestion windows, and random waypoint mobility."""

from __future__ import annotations

import math
import random

import pytest

from rplsim.radio import (
    Mobility,
    MobilityConfig,
    Radio,
    RadioConfig,
)

IDLE = [0, 0]  # tx_free_at: no node is transmitting
BUSY = [0, 10**9]  # node 1 transmits throughout


def make_radio(**kwargs):
    return Radio(RadioConfig(**kwargs), random.Random(42), 2)


class TestUnitDisk:
    def test_out_of_range_is_lost(self):
        radio = make_radio(base_loss=0.0)
        positions = [[0.0, 0.0], [51.0, 0.0]]
        in_range = [radio.in_range(positions, node) for node in (0, 1)]
        assert in_range == [[], []]
        assert radio.deliver(0, 10, in_range[0], IDLE) == []
        assert radio.deliver(0, 10, in_range[0], IDLE, 1) is False

    def test_in_range_lossless_is_certain(self):
        radio = make_radio(base_loss=0.0, congestion_model="none")
        for _ in range(50):
            assert radio.deliver(0, 10, [1], IDLE) == [1]
            assert radio.deliver(0, 10, [1], IDLE, 1) is True

    def test_boundary_inclusive(self):
        radio = make_radio(base_loss=0.0, congestion_model="none")
        positions = [[0.0, 0.0], [50.0, 0.0]]
        in_range = [radio.in_range(positions, node) for node in (0, 1)]
        assert in_range == [[1], [0]]
        assert radio.deliver(0, 10, in_range[0], IDLE) == [1]

    def test_busy_receiver_misses_frame(self):
        radio = make_radio(base_loss=0.0, congestion_model="none")
        assert radio.deliver(0, 10, [1], BUSY) == []
        assert radio.deliver(0, 10, [1], BUSY, 1) is False


class TestLossDraws:
    """Loss is drawn only where a frame could arrive, in receiver order."""

    def draws_used(self, radio) -> int:
        probe = random.Random(42)
        for used in range(10):
            if probe.getstate() == radio.rng.getstate():
                return used
            probe.random()
        raise AssertionError("more than 10 draws")

    def test_broadcast_draws_for_each_idle_receiver(self):
        radio = Radio(RadioConfig(), random.Random(42), 4)
        radio.deliver(0, 10, [1, 2, 3], [0, 0, 10**9, 0])
        assert self.draws_used(radio) == 2

    def test_unicast_draws_only_for_addressee(self):
        radio = Radio(RadioConfig(), random.Random(42), 4)
        radio.deliver(0, 10, [1, 2, 3], [0] * 4, 2)
        assert self.draws_used(radio) == 1
        radio.deliver(0, 10, [1, 3], [0] * 4, 2)  # addressee out of range
        radio.deliver(0, 10, [1, 2, 3], [0, 0, 10**9, 0], 2)  # addressee busy
        assert self.draws_used(radio) == 1

    def test_silent_addressee_draws_once_and_never_acknowledges(self):
        # lossless, so an addressee that did acknowledge would return True
        config = RadioConfig(base_loss=0.0, congestion_model="none")
        radio = Radio(config, random.Random(42), 4, silent=[2])
        assert radio.deliver(0, 10, [1, 2, 3], [0] * 4, 2) is False
        assert self.draws_used(radio) == 1
        assert radio.deliver(0, 10, [1, 3], [0] * 4, 2) is False  # out of range
        assert radio.deliver(0, 10, [1, 2, 3], [0, 0, 10**9, 0], 2) is False  # busy
        assert self.draws_used(radio) == 1
        assert radio.deliver(0, 10, [1, 2, 3], [0] * 4, 1) is True
        assert self.draws_used(radio) == 2


class TestCongestion:
    def test_saturated_window_guarantees_loss(self):
        radio = make_radio(base_loss=0.0)
        # fill the window to twice its capacity: 100 ms capacity, 200 ms used
        for _ in range(20):
            radio.deliver(50, 10, [1], BUSY)
        assert radio.deliver(60, 10, [1], IDLE) == []

    def test_fresh_window_forgets_old_load(self):
        radio = make_radio(base_loss=0.0)
        for _ in range(30):
            radio.deliver(50, 10, [1], BUSY)
        assert radio.deliver(150, 10, [1], IDLE) == [1]

    def test_below_capacity_no_congestion_loss(self):
        radio = make_radio(base_loss=0.0)
        for _ in range(9):
            radio.deliver(0, 10, [1], BUSY)
        assert radio.deliver(5, 10, [1], IDLE) == [1]

    def test_congestion_none_ignores_load(self):
        radio = make_radio(base_loss=0.0, congestion_model="none")
        for _ in range(50):
            radio.deliver(0, 10, [1], BUSY)
        assert radio.deliver(5, 10, [1], IDLE) == [1]

    def test_unicast_load_charges_bystanders(self):
        radio = make_radio(base_loss=0.0)
        for _ in range(20):
            radio.deliver(50, 10, [1], IDLE, 0)  # addressed elsewhere
        assert radio.deliver(60, 10, [1], IDLE) == []

    def test_flooding_attack_raises_loss_rate(self):
        """Paired seeded runs: co-located flooding strictly raises loss."""
        from rplsim import engine
        from rplsim.config import ScenarioConfig, make_variant

        base = ScenarioConfig(
            name="flood",
            duration_ms=400_000,
            n_sensors=6,
            n_attackers=2,
            radio=RadioConfig(tx_range_m=65.0),
            mobility=MobilityConfig(area=(100.0, 100.0)),
        )
        quiet, _ = engine.run(make_variant(base, "baseline", "static"), seed=5)
        noisy, _ = engine.run(make_variant(base, "attack", "static", 1000), seed=5)
        assert noisy.pdr < quiet.pdr


class ReferenceRadio:
    """The congestion model as first written: a window id per receiver, every
    receiver charged before any draw, loss drawn by a separate function, and
    a ``silent`` addressee's outcome thrown away after its draw.  Its window
    and capacity are its own literals, so they pin the radio's constants."""

    WINDOW_MS = 100
    CAPACITY_MS = 10 * 10  # ten 10 ms broadcasts

    def __init__(self, config, rng, n_nodes, silent=()):
        self.silent = set(silent)
        self.base_loss = config.base_loss
        self.capacity = self.CAPACITY_MS if config.congestion_model == "airtime" else None
        self.rng = rng
        self.window_id = [-1] * n_nodes
        self.occupied = [0] * n_nodes

    def lost(self, occupied):
        p_loss = self.base_loss
        capacity = self.capacity
        if capacity is not None and occupied > capacity:
            p_extra = min(1.0, (occupied - capacity) / capacity)
            p_loss = 1.0 - (1.0 - p_loss) * (1.0 - p_extra)
        return self.rng.random() < p_loss

    def deliver(self, now, airtime_ms, receivers, tx_free_at, draw_for=None):
        win = now // self.WINDOW_MS
        for r in receivers:
            if self.window_id[r] == win:
                self.occupied[r] += airtime_ms
            else:
                self.window_id[r] = win
                self.occupied[r] = airtime_ms
        if draw_for is None:
            return [
                r for r in receivers if tx_free_at[r] <= now and not self.lost(self.occupied[r])
            ]
        return (
            draw_for in receivers
            and tx_free_at[draw_for] <= now
            and not self.lost(self.occupied[draw_for])
            and draw_for not in self.silent
        )


class TestAgainstReference:
    """``Radio.deliver`` gives the reference's results and draws, call by call."""

    N = 8

    @pytest.mark.parametrize(
        "congestion,base_loss,silent",
        [("airtime", 0.01, (6, 7)), ("airtime", 0.3, (0, 3)), ("none", 0.05, (1, 2, 5))],
        ids=["airtime-0.01", "airtime-0.3", "none-0.05"],
    )
    def test_random_calls_match_the_reference(self, congestion, base_loss, silent):
        config = RadioConfig(congestion_model=congestion, base_loss=base_loss)
        radio = Radio(config, random.Random(7), self.N, silent)
        reference = ReferenceRadio(config, random.Random(7), self.N, silent)
        calls = random.Random(f"calls/{congestion}/{base_loss}")
        now = 0
        seen = {"unicast": 0, "busy": 0, "out_of_range": 0, "over_capacity": 0, "silent": 0}
        for _ in range(3000):
            now += calls.choice((0, 0, 1, 7, 30, 99, 100, 250))  # never back in time
            receivers = calls.sample(range(self.N), calls.randint(0, self.N))
            tx_free_at = [now + calls.choice((-50, 0, 0, 0, 1, 40)) for _ in range(self.N)]
            draw_for = None if calls.random() < 0.4 else calls.randrange(self.N)
            airtime = calls.choice((10, 30, 100))
            args = (now, airtime, receivers, tx_free_at, draw_for)
            assert radio.deliver(*args) == reference.deliver(*args)
            assert radio.rng.getstate() == reference.rng.getstate()
            seen["unicast"] += draw_for is not None
            seen["busy"] += any(tx_free_at[r] > now for r in receivers)
            seen["out_of_range"] += draw_for is not None and draw_for not in receivers
            # a silent addressee that was heard uses its draw, then is ignored
            heard = draw_for in receivers and tx_free_at[draw_for] <= now
            seen["silent"] += heard and draw_for in silent
            seen["over_capacity"] += any(
                reference.occupied[r] > ReferenceRadio.CAPACITY_MS for r in receivers
            )
        assert min(seen.values()) > 100, seen

    def test_a_strobe_heavy_call_mix_matches_the_reference(self):
        """An attack run's mix: most frames are strobes whose load no draw reads.

        About 90% of calls are unicasts to an addressee that never
        acknowledges or is out of range, so most windows close with charges
        that were never applied, and a broadcast or a legitimate unicast
        often has to apply many at once.  Both are counted from the call mix.
        """
        silent = (10, 11)
        config = RadioConfig()
        radio = Radio(config, random.Random(3), 12, silent)
        reference = ReferenceRadio(config, random.Random(3), 12, silent)
        calls = random.Random("calls/strobe-heavy")
        now = 0
        unapplied = 0  # charges since the last draw that reads a load
        seen = {"closed_unapplied": 0, "applied_5_or_more": 0, "broadcast": 0, "legit": 0}
        for _ in range(6000):
            step = calls.choice((0, 0, 0, 0, 1, 2, 5, 10, 20, 150))
            window_ms = ReferenceRadio.WINDOW_MS
            if (now + step) // window_ms != now // window_ms:
                seen["closed_unapplied"] += unapplied > 0
                unapplied = 0
            now += step
            receivers = sorted(calls.sample(range(12), calls.randint(4, 11)))
            tx_free_at = [now + calls.choice((-20, 0, 0, 0, 0, 0, 100)) for _ in range(12)]
            kind = calls.random()
            if kind < 0.05:
                draw_for, airtime = None, 10
            elif kind < 0.1:
                draw_for, airtime = calls.choice(receivers), calls.choice((10, 100))
            else:
                # a strobe: at an addressee that never acknowledges, or one out of range
                out_of_range = [r for r in range(12) if r not in receivers]
                if out_of_range and calls.random() < 0.3:
                    draw_for = calls.choice(out_of_range)
                else:
                    draw_for = calls.choice(silent)
                airtime = 100
            args = (now, airtime, receivers, tx_free_at, draw_for)
            assert radio.deliver(*args) == reference.deliver(*args)
            assert radio.rng.getstate() == reference.rng.getstate()
            unapplied += draw_for is not None
            reads = draw_for is None or (
                draw_for in receivers and tx_free_at[draw_for] <= now and draw_for not in silent
            )
            if reads:
                seen["applied_5_or_more"] += unapplied >= 5
                seen["broadcast" if draw_for is None else "legit"] += 1
                unapplied = 0
        assert min(seen.values()) >= 100, seen

    def test_a_frame_from_an_earlier_window_is_rejected(self):
        radio = make_radio()
        radio.deliver(250, 10, [1], IDLE)
        radio.deliver(299, 10, [1], IDLE)  # same window
        with pytest.raises(AssertionError):
            radio.deliver(199, 10, [1], IDLE)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="tx_range_m"):
            RadioConfig(tx_range_m=0)
        with pytest.raises(ValueError, match="base_loss"):
            RadioConfig(base_loss=1.0)
        with pytest.raises(ValueError, match="congestion_model"):
            RadioConfig(congestion_model="magic")
        with pytest.raises(ValueError, match="speed_min"):
            MobilityConfig(speed_min=0)
        with pytest.raises(ValueError, match="model"):
            MobilityConfig(model="teleport")
        # a strobe that ends before it starts would be scheduled in the past
        with pytest.raises(ValueError, match="strobe_airtime_ms"):
            RadioConfig(strobe_airtime_ms=-50)
        with pytest.raises(ValueError, match="pause_ms"):
            MobilityConfig(pause_ms=-5000)


class TestMobility:
    def test_static_never_moves(self):
        mob = Mobility(MobilityConfig(model="static"), lambda n: random.Random(n), [1, 2])
        positions = {1: [10.0, 10.0], 2: [20.0, 20.0]}
        mob.move(positions, 1000, 0)
        assert positions == {1: [10.0, 10.0], 2: [20.0, 20.0]}

    def test_step_displacement_bounded_by_speed(self):
        cfg = MobilityConfig(model="random_waypoint", speed_min=1.0, speed_max=2.0)
        mob = Mobility(cfg, lambda n: random.Random(2 + n), [1])
        positions = {1: [75.0, 75.0]}
        for step in range(500):
            before = tuple(positions[1])
            mob.move(positions, 1000, step * 1000)
            moved = math.dist(before, positions[1])
            assert moved <= 2.0 + 1e-9

    def test_positions_stay_in_area(self):
        cfg = MobilityConfig(model="random_waypoint", area=(150.0, 150.0))
        mob = Mobility(cfg, lambda n: random.Random(3 + n), [1, 2, 3])
        positions = {i: [75.0, 75.0] for i in (1, 2, 3)}
        for step in range(2000):
            mob.move(positions, 1000, step * 1000)
            for pos in positions.values():
                assert 0.0 <= pos[0] <= 150.0
                assert 0.0 <= pos[1] <= 150.0

    def test_pause_at_waypoint(self):
        cfg = MobilityConfig(
            model="random_waypoint", speed_min=5.0, speed_max=5.0, area=(10.0, 10.0),
            pause_ms=5000,
        )
        mob = Mobility(cfg, lambda n: random.Random(4 + n), [1])
        positions = {1: [5.0, 5.0]}
        paused_steps = 0
        for step in range(100):
            before = tuple(positions[1])
            mob.move(positions, 1000, step * 1000)
            if tuple(positions[1]) == before:
                paused_steps += 1
        assert paused_steps > 0
