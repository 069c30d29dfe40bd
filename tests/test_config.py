"""Tests for scenario configuration and the on-disk config format."""

from __future__ import annotations

import pytest

from rplsim.config import (
    BatchConfig,
    ConfigError,
    ScenarioConfig,
    load_batch,
    make_variant,
)
from rplsim.rpl import ObjectiveMode

FULL_CONFIG = """
[scenario]
name = demo
duration_s = 600
sensors = 8
attackers = 3
topology = random
objective = of0
data_interval_s = 30
data_size_bytes = 64
replications = 3
modes = baseline cosec
mobility_modes = static
replay_intervals_s = 1 3

[radio]
tx_range_m = 60
base_loss = 0.05
congestion = none
airtime_ms = 12
capacity_per_window = 8
window_ms = 50
strobe_ms = 80

[mobility]
speed_min = 0.5
speed_max = 1.5
area_m = 100 80
pause_s = 2

[attacker]
attack_start_s = 45
capture = strongest

[ids]
safe_interval_ms = 400
block_threshold = 3
delta = 1.5
activation_s = 60
check_period_s = 15
sigma_margin_ms = 5000
min_gap_mode = true
"""


def write_cfg(tmp_path, text, name="demo.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadBatch:
    def test_full_round_trip(self, tmp_path):
        batch = load_batch(write_cfg(tmp_path, FULL_CONFIG))
        base = batch.base
        assert base.name == "demo"
        assert base.duration_ms == 600_000
        assert base.n_sensors == 8 and base.n_attackers == 3
        assert base.objective is ObjectiveMode.OF0
        assert base.data_interval_ms == 30_000
        assert base.radio.tx_range_m == 60
        assert base.radio.congestion_model == "none"
        assert base.mobility.area == (100.0, 80.0)
        assert base.mobility.pause_ms == 2000
        assert base.attacker.attack_start_ms == 45_000
        assert base.ids.block_threshold == 3
        assert base.ids.min_gap_mode is True
        assert batch.modes == ("baseline", "cosec")
        assert batch.seeds == (1, 2, 3)
        assert batch.replay_intervals_ms == (1000, 3000)

    def test_defaults_from_empty_file(self, tmp_path):
        batch = load_batch(write_cfg(tmp_path, "[scenario]\nname = d\n"))
        base = batch.base
        assert base.duration_ms == 1_800_000
        assert base.n_sensors == 16 and base.n_attackers == 4
        assert base.data_interval_ms == 60_000
        assert base.attacker.attack_start_ms == 90_000
        assert base.ids.activation_delay_ms == 120_000
        assert base.ids.check_period_ms == 30_000
        assert base.ids.node_max == 21
        assert batch.seeds == tuple(range(1, 11))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_batch("/nonexistent/path.cfg")

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
            load_batch(write_cfg(tmp_path, "[mystery]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key: warp"):
            load_batch(write_cfg(tmp_path, "[radio]\nwarp = 9\n"))

    def test_bad_value_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[radio\] tx_range_m"):
            load_batch(write_cfg(tmp_path, "[radio]\ntx_range_m = wide\n"))

    def test_attackers_exceeding_sensors_rejected(self, tmp_path):
        text = "[scenario]\nsensors = 2\nattackers = 3\n"
        with pytest.raises(ConfigError, match="attackers must not exceed sensors"):
            load_batch(write_cfg(tmp_path, text))

    def test_bad_objective_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="objective"):
            load_batch(write_cfg(tmp_path, "[scenario]\nobjective = best\n"))


class TestVariants:
    def test_grid_expansion(self):
        batch = BatchConfig(
            base=ScenarioConfig(name="g"),
            modes=("baseline", "attack", "cosec"),
            mobility_modes=("static", "mobile"),
            replay_intervals_ms=(1000,),
            seeds=(1,),
        )
        labels = [label for label, _, _ in batch.variants()]
        assert labels == [
            "static-baseline",
            "static-attack-r1s",
            "static-cosec-r1s",
            "mobile-baseline",
            "mobile-attack-r1s",
            "mobile-cosec-r1s",
        ]

    def test_baseline_collapses_intervals(self):
        batch = BatchConfig(
            base=ScenarioConfig(name="g"),
            modes=("baseline", "attack"),
            mobility_modes=("static",),
            replay_intervals_ms=(1000, 2000, 3000, 4000),
            seeds=(1,),
        )
        labels = [label for label, _, _ in batch.variants()]
        assert labels.count("static-baseline") == 1
        assert len([l for l in labels if l.startswith("static-attack")]) == 4

    def test_fractional_intervals_get_their_own_labels(self):
        batch = BatchConfig(
            base=ScenarioConfig(name="g"),
            modes=("attack",),
            mobility_modes=("static",),
            replay_intervals_ms=(1000, 1500, 2000),
            seeds=(1,),
        )
        labels = [label for label, _, _ in batch.variants()]
        assert labels == ["static-attack-r1s", "static-attack-r1.5s", "static-attack-r2s"]

    def test_colliding_interval_labels_rejected(self):
        # 1234.567 s and 1234.568 s both print as r1234.57s
        with pytest.raises(ConfigError, match="replay_intervals"):
            BatchConfig(base=ScenarioConfig(name="g"), replay_intervals_ms=(1234567, 1234568))
        with pytest.raises(ConfigError, match="replay_intervals"):
            BatchConfig(base=ScenarioConfig(name="g"), replay_intervals_ms=(1000, 1000))

    def test_repeated_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds"):
            BatchConfig(base=ScenarioConfig(name="g"), seeds=(1, 2, 1))
        with pytest.raises(ConfigError, match="seeds"):
            load_batch(write_cfg(tmp_path, "[scenario]\nseeds = 3 4 3\n"))

    def test_make_variant_semantics(self):
        base = ScenarioConfig(name="v")
        baseline = make_variant(base, "baseline", "static")
        assert baseline.n_attackers == 0 and not baseline.ids_enabled
        attack = make_variant(base, "attack", "mobile", 3000)
        assert attack.n_attackers == base.n_attackers
        assert not attack.ids_enabled
        assert attack.attacker.replay_interval_ms == 3000
        assert attack.mobility.model == "random_waypoint"
        cosec = make_variant(base, "cosec", "static", 2000)
        assert cosec.ids_enabled
        assert cosec.mobility.model == "static"

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            make_variant(ScenarioConfig(name="v"), "stealth", "static")


class TestScenarioValidation:
    def test_explicit_positions_must_cover_all_nodes(self):
        with pytest.raises(ConfigError, match="positions must cover"):
            ScenarioConfig(
                name="x",
                n_sensors=2,
                n_attackers=0,
                topology="explicit",
                positions=((0, 0.0, 0.0),),
            )

    def test_address_layout(self):
        sc = ScenarioConfig(name="x", n_sensors=3, n_attackers=2)
        assert sc.root_id == 0
        assert list(sc.sensor_ids) == [1, 2, 3]
        assert list(sc.attacker_ids) == [4, 5]
        assert sc.n_nodes == 6
