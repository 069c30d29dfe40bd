"""Tests for scenario configuration and the on-disk config format."""

from __future__ import annotations

import configparser
import math
import operator
import os
from dataclasses import replace

import pytest

from rplsim import engine
from rplsim.config import (
    BatchConfig,
    ConfigError,
    ScenarioConfig,
    load_batch,
    make_variant,
)
from rplsim.ids import IdsConfig
from rplsim.radio import MobilityConfig, RadioConfig

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")

FULL_CONFIG = """
[scenario]
name = demo
duration_s = 600
sensors = 8
attackers = 3
data_interval_s = 30
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

[ids]
gap_threshold_ms = 5000
block_threshold = 3
delta = 1.5
activation_s = 60
check_period_s = 15
"""

# one place per node id of the default scenario (gateway, 16 sensors, 4 attackers)
POSITIONS = " ".join(f"{i}:{i}.5,{20 - i}" for i in range(21))
LAYOUT = tuple((i, i + 0.5, 20.0 - i) for i in range(21))

# (section, key, value, where it lands, parsed value): every INI key once,
# each set to a value that differs from its default
EVERY_KEY = [
    ("scenario", "name", "other", "base.name", "other"),
    ("scenario", "duration_s", "120.5", "base.duration_ms", 120_500),
    ("scenario", "sensors", "9", "base.n_sensors", 9),
    ("scenario", "attackers", "2", "base.n_attackers", 2),
    ("scenario", "positions", POSITIONS, "base.positions", LAYOUT),
    ("scenario", "data_interval_s", "7.5", "base.data_interval_ms", 7_500),
    ("scenario", "replications", "3", "seeds", (1, 2, 3)),
    ("scenario", "seeds", "5 7", "seeds", (5, 7)),
    ("scenario", "modes", "attack", "modes", ("attack",)),
    ("scenario", "mobility_modes", "mobile", "mobility_modes", ("mobile",)),
    ("scenario", "replay_intervals_s", "0.5 2.5", "replay_intervals_ms", (500, 2_500)),
    ("radio", "tx_range_m", "65", "base.radio.tx_range_m", 65.0),
    ("radio", "base_loss", "0.2", "base.radio.base_loss", 0.2),
    ("radio", "congestion", "none", "base.radio.congestion_model", "none"),
    ("radio", "airtime_ms", "12", "base.radio.airtime_per_msg_ms", 12),
    ("radio", "capacity_per_window", "8", "base.radio.capacity_per_window", 8),
    ("radio", "window_ms", "50", "base.radio.window_ms", 50),
    ("radio", "strobe_ms", "80", "base.radio.strobe_airtime_ms", 80),
    ("mobility", "speed_min", "0.5", "base.mobility.speed_min", 0.5),
    ("mobility", "speed_max", "3", "base.mobility.speed_max", 3.0),
    ("mobility", "area_m", "100 80", "base.mobility.area", (100.0, 80.0)),
    ("mobility", "pause_s", "2.5", "base.mobility.pause_ms", 2_500),
    ("attacker", "attack_start_s", "45", "base.attacker.attack_start_ms", 45_000),
    ("ids", "gap_threshold_ms", "400", "base.ids.gap_threshold_ms", 400),
    ("ids", "block_threshold", "3", "base.ids.block_threshold", 3),
    ("ids", "delta", "1.5", "base.ids.fence_delta", 1.5),
    ("ids", "node_max", "40", "base.ids.node_max", 40),
    ("ids", "activation_s", "60", "base.ids.activation_delay_ms", 60_000),
    ("ids", "check_period_s", "15", "base.ids.check_period_ms", 15_000),
]


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
        assert base.data_interval_ms == 30_000
        assert base.radio.tx_range_m == 60
        assert base.radio.congestion_model == "none"
        assert base.mobility.area == (100.0, 80.0)
        assert base.mobility.pause_ms == 2000
        assert base.attacker.attack_start_ms == 45_000
        assert base.ids.block_threshold == 3
        assert base.ids.gap_threshold_ms == 5000
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
        assert base.ids.node_max == 32
        assert batch.seeds == tuple(range(1, 11))

    def test_empty_file_gives_the_dataclass_defaults(self, tmp_path):
        batch = load_batch(write_cfg(tmp_path, ""))
        assert batch == BatchConfig(base=ScenarioConfig())

    @pytest.mark.parametrize(
        "section,key,value,where,expected", EVERY_KEY, ids=[row[1] for row in EVERY_KEY]
    )
    def test_every_key_lands_in_its_field(self, tmp_path, section, key, value, where, expected):
        text = f"[{section}]\n{key} = {value}\n"
        get = operator.attrgetter(where)
        assert get(load_batch(write_cfg(tmp_path, text))) == expected
        assert get(load_batch(write_cfg(tmp_path, "", "empty.cfg"))) != expected

    def test_every_key_is_covered(self):
        from rplsim.config import _FORMAT

        listed = {(section, key) for section, key, *_ in EVERY_KEY}
        assert listed == {(section, key) for section in _FORMAT for key in _FORMAT[section]}
        assert len(listed) == 29

    def test_readme_block_lists_every_key_at_its_default(self, tmp_path):
        from rplsim.config import _FORMAT

        with open(README) as fh:
            block = fh.read().split("## Config format", 1)[1].split("```\n", 2)[1]
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(block)
        listed = {section: list(parser[section]) for section in parser.sections()}
        assert listed == {section: list(keys) for section, keys in _FORMAT.items()}
        # the shown values are the defaults; the seed list is an example,
        # and a file gives it or replications, not both
        with pytest.raises(ConfigError, match="replications and seeds"):
            load_batch(write_cfg(tmp_path, block))

        def without(key):
            return "".join(line for line in block.splitlines(True) if not line.startswith(key))

        defaults = ScenarioConfig()
        assert load_batch(write_cfg(tmp_path, without("seeds"))) == BatchConfig(base=defaults)
        assert load_batch(write_cfg(tmp_path, without("replications"))) == BatchConfig(
            base=defaults, seeds=(1, 2, 3)
        )

    def test_seconds_round_to_the_nearest_millisecond(self, tmp_path):
        text = (
            "[scenario]\nduration_s = 32.3\nmodes = attack\nreplay_intervals_s = 2.01\n"
            "[attacker]\nattack_start_s = 30\n"
        )
        batch = load_batch(write_cfg(tmp_path, text))
        assert batch.base.duration_ms == 32_300
        assert batch.replay_intervals_ms == (2_010,)
        assert [label for label, _, _ in batch.variants()][0] == "static-attack-r2.01s"
        # every whole-millisecond value from 0.001 s to 100 s survives
        every = range(1, 100_001)
        text = "[scenario]\nreplay_intervals_s = " + " ".join(str(ms / 1000) for ms in every)
        batch = load_batch(write_cfg(tmp_path, text, "every.cfg"))
        assert batch.replay_intervals_ms == tuple(every)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_seconds_rejected(self, tmp_path, value):
        text = f"[scenario]\nduration_s = {value}\n"
        message = rf"^\[scenario\] duration_s: seconds must be finite, got {value}$"
        with pytest.raises(ConfigError, match=message):
            load_batch(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "section,key,value,field,kwargs",
        [
            ("ids", "delta", "nan", "fence_delta", dict(fence_delta=math.nan)),
            ("ids", "delta", "inf", "fence_delta", dict(fence_delta=math.inf)),
            ("radio", "tx_range_m", "nan", "tx_range_m", dict(tx_range_m=math.nan)),
            ("radio", "tx_range_m", "inf", "tx_range_m", dict(tx_range_m=math.inf)),
            ("mobility", "speed_min", "nan", "speed_min", dict(speed_min=math.nan)),
            ("mobility", "speed_max", "inf", "speed_max", dict(speed_max=math.inf)),
            ("mobility", "area_m", "nan 150", "area", dict(area=(math.nan, 150.0))),
            ("mobility", "area_m", "150 inf", "area", dict(area=(150.0, math.inf))),
        ],
    )
    def test_non_finite_floats_rejected(self, tmp_path, section, key, value, field, kwargs):
        # each used to load: a nan delta never fires, a nan range or area
        # ends in "no connected layout", an infinite speed teleports nodes
        with pytest.raises(ConfigError, match=field):
            load_batch(write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n"))
        dataclass = {"ids": IdsConfig, "radio": RadioConfig, "mobility": MobilityConfig}[section]
        with pytest.raises(ValueError, match=field):
            dataclass(**kwargs)

    def test_packet_size_key_is_gone(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key: data_size_bytes"):
            load_batch(write_cfg(tmp_path, "[scenario]\ndata_size_bytes = 30\n"))

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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_gap_threshold_below_one_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="^gap_threshold_ms must be >= 1$"):
            load_batch(write_cfg(tmp_path, f"[ids]\ngap_threshold_ms = {value}\n"))

    def test_replications_and_seeds_together_rejected(self, tmp_path):
        # two settings for one decision: neither may silently win
        text = "[scenario]\nreplications = 3\nseeds = 5 7\n"
        with pytest.raises(ConfigError, match=r"^\[scenario\] replications and seeds: give one"):
            load_batch(write_cfg(tmp_path, text))

    def test_block_threshold_below_two_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="block_threshold must be >= 2"):
            load_batch(write_cfg(tmp_path, "[ids]\nblock_threshold = 1\n"))

    def test_attackers_exceeding_sensors_rejected(self, tmp_path):
        text = "[scenario]\nsensors = 2\nattackers = 3\n"
        with pytest.raises(ConfigError, match="attackers must not exceed sensors"):
            load_batch(write_cfg(tmp_path, text))

    def test_retired_knobs_are_unknown_keys(self, tmp_path):
        # MRHOF, first-heard capture and the last-gap rule are the only
        # behaviours; positions alone choose the layout, and one setting
        # (gap_threshold_ms) the gap test
        for section, key, value in (
            ("scenario", "objective", "mrhof"),
            ("attacker", "capture", "first_heard"),
            ("ids", "min_gap_mode", "false"),
            ("scenario", "topology", "explicit"),
            ("ids", "safe_interval_ms", "500"),
            ("ids", "sigma_margin_ms", "4500"),
        ):
            text = f"[{section}]\n{key} = {value}\n"
            with pytest.raises(ConfigError, match=rf"\[{section}\] unknown key: {key}$"):
                load_batch(write_cfg(tmp_path, text))


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

    def test_repeated_modes_rejected(self, tmp_path):
        # each repeat would run every job of the mode again under one label
        with pytest.raises(ConfigError, match="^modes must be distinct"):
            BatchConfig(base=ScenarioConfig(name="g"), modes=("attack", "attack"))
        with pytest.raises(ConfigError, match="^mobility_modes must be distinct"):
            BatchConfig(base=ScenarioConfig(name="g"), mobility_modes=("static", "static"))
        with pytest.raises(ConfigError, match="^modes must be distinct"):
            load_batch(write_cfg(tmp_path, "[scenario]\nmodes = baseline cosec baseline\n"))

    def test_unknown_modes_rejected(self):
        with pytest.raises(ConfigError, match="^modes must be distinct values among"):
            BatchConfig(base=ScenarioConfig(name="g"), modes=("baseline", "stealth"))
        with pytest.raises(ConfigError, match="^mobility_modes must be distinct values among"):
            BatchConfig(base=ScenarioConfig(name="g"), mobility_modes=("flying",))

    @pytest.mark.parametrize("mode", ["attack", "cosec"])
    def test_attack_modes_need_attackers(self, tmp_path, mode):
        # without attackers these rows would be copies of the baseline
        with pytest.raises(ConfigError, match="need attackers"):
            BatchConfig(base=ScenarioConfig(name="g", n_attackers=0), modes=("baseline", mode))
        text = f"[scenario]\nattackers = 0\nmodes = baseline {mode}\n"
        with pytest.raises(ConfigError, match="need attackers"):
            load_batch(write_cfg(tmp_path, text))
        batch = BatchConfig(base=ScenarioConfig(name="g", n_attackers=0), modes=("baseline",))
        assert [label for label, _, _ in batch.variants()] == ["static-baseline", "mobile-baseline"]

    @pytest.mark.parametrize("mode", ["attack", "cosec"])
    @pytest.mark.parametrize("start_s", ["60", "90"])
    def test_attack_modes_need_the_attack_to_start_in_the_run(self, tmp_path, mode, start_s):
        # an attack that never launches censors response times at a horizon of 0 s or less
        late = f"duration_s = 60\n[attacker]\nattack_start_s = {start_s}\n"
        with pytest.raises(ConfigError, match="^attack_start must be before the run ends"):
            load_batch(write_cfg(tmp_path, f"[scenario]\nmodes = baseline {mode}\n{late}"))
        baseline = load_batch(write_cfg(tmp_path, f"[scenario]\nmodes = baseline\n{late}"))
        assert baseline.modes == ("baseline",)

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_shipped_configs_load(self, name):
        base = load_batch(os.path.join(CONFIGS, name)).base
        assert base.ids.gap_threshold_ms == 4500
        assert base.positions == ()

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_shipped_configs_run(self, name):
        # every variant of every shipped config runs, so none can rot unseen
        batch = load_batch(os.path.join(CONFIGS, name))
        for label, scenario, _ in batch.variants():
            metrics, _ = engine.run(replace(scenario, duration_ms=150_000), batch.seeds[0])
            assert 0.0 <= metrics.pdr <= 1.0, label

    @pytest.mark.parametrize(
        "text,axis",
        [
            ("modes =\n", "modes"),
            ("mobility_modes =\n", "mobility_modes"),
            ("modes = attack cosec\nreplay_intervals_s =\n", "replay_intervals"),
        ],
    )
    def test_empty_axes_rejected(self, tmp_path, text, axis):
        # an empty axis would run no job and still write header-only results
        with pytest.raises(ConfigError, match=f"^{axis} must not be empty"):
            load_batch(write_cfg(tmp_path, "[scenario]\n" + text))

    def test_baseline_alone_needs_no_replay_intervals(self, tmp_path):
        text = "[scenario]\nmodes = baseline\nreplay_intervals_s =\n"
        batch = load_batch(write_cfg(tmp_path, text))
        assert [label for label, _, _ in batch.variants()] == ["static-baseline", "mobile-baseline"]

    def test_explicit_layout_runs_its_baseline(self, tmp_path):
        # the baseline drops the attackers, so it keeps only the other places
        text = (
            "[scenario]\nsensors = 2\nattackers = 1\nmobility_modes = static\n"
            "replay_intervals_s = 1\npositions = 0:0,0 1:30,0 2:30,20 3:60,10\n"
        )
        variants = {label: sc for label, sc, _ in load_batch(write_cfg(tmp_path, text)).variants()}
        layout = ((0, 0.0, 0.0), (1, 30.0, 0.0), (2, 30.0, 20.0))
        assert variants["static-baseline"].positions == layout
        assert variants["static-attack-r1s"].positions == layout + ((3, 60.0, 10.0),)
        sim = engine.Simulation(variants["static-baseline"], 1)
        assert sim.positions == [[x, y] for _, x, y in layout]

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
    def test_positions_alone_place_every_node(self, tmp_path):
        text = (
            "[scenario]\nsensors = 2\nattackers = 1\n"
            "positions = 0:75,75 1:20,30 2:5,140 3:130,10\n"
        )
        sim = engine.Simulation(load_batch(write_cfg(tmp_path, text)).base, 1)
        assert sim.positions == [[75.0, 75.0], [20.0, 30.0], [5.0, 140.0], [130.0, 10.0]]

    def test_explicit_positions_must_cover_all_nodes(self):
        with pytest.raises(ConfigError, match="positions must cover"):
            ScenarioConfig(name="x", n_sensors=2, n_attackers=0, positions=((0, 0.0, 0.0),))

    def test_explicit_positions_must_not_repeat_an_id(self, tmp_path):
        # every id is covered, but node 0 would silently land on its last entry
        text = (
            "[scenario]\nsensors = 2\nattackers = 0\n"
            "positions = 0:75,75 0:10,10 1:20,20 2:30,30\n"
        )
        with pytest.raises(ConfigError, match="positions repeat node id 0$"):
            load_batch(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("layout", ["0:nan,nan 1:inf,0", "0:75,75 1:20,-inf"])
    def test_non_finite_positions_rejected(self, tmp_path, layout):
        # no node would be in range of another: the run would end with PDR 0
        text = f"[scenario]\nsensors = 1\nattackers = 0\npositions = {layout}\n"
        with pytest.raises(ConfigError, match=r"^positions of node \d must be finite$"):
            load_batch(write_cfg(tmp_path, text))
        with pytest.raises(ConfigError, match="must be finite"):
            ScenarioConfig(n_sensors=1, n_attackers=0, positions=((0, 0.0, 0.0), (1, math.nan, 5.0)))

    def test_continuation_line_in_name_rejected(self, tmp_path):
        # the indented line continues the value: the name would span two trace lines
        text = "[scenario]\nname = demo\n  second-static-attack\n"
        with pytest.raises(ConfigError, match="^name must not contain a tab or a line break$"):
            load_batch(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("name", ["de\tmo", "demo\n", "de\rmo"])
    def test_name_that_breaks_a_trace_line_rejected(self, name):
        with pytest.raises(ConfigError, match="name must not contain"):
            ScenarioConfig(name=name)

    def test_address_layout(self):
        sc = ScenarioConfig(name="x", n_sensors=3, n_attackers=2)
        assert sc.root_id == 0
        assert list(sc.sensor_ids) == [1, 2, 3]
        assert list(sc.attacker_ids) == [4, 5]
        assert sc.n_nodes == 6
