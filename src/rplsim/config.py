"""Scenario and batch configuration, plus the on-disk config format.

A ``ScenarioConfig`` fully describes one run (modulo the seed).  A
``BatchConfig`` wraps a base scenario with the experiment grid: which modes
(baseline / attack / cosec), which mobility variants, which replay intervals,
and which seeds.  The on-disk format is INI-style sections with
space-separated lists; ``load_batch`` rejects unknown keys and bad values
with errors naming the offending field.

Node addressing is fixed: node 0 is the gateway/root, sensors are
1..n_sensors, attackers occupy the next n_attackers addresses.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .attack import AttackerConfig, CapturePolicy
from .ids import IdsConfig
from .radio import MobilityConfig, RadioConfig
from .rpl import ObjectiveMode

MODES = ("baseline", "attack", "cosec")
MOBILITY_MODES = ("static", "mobile")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class Tuning:
    """Protocol/MAC knobs that are not part of the headline parameter set."""

    probe_attempts: int = 5
    probe_cooldown_ms: int = 1000
    data_retries: int = 1  # retransmissions per hop attempt chain
    retry_backoff_ms: int = 150
    fwd_delay_min_ms: int = 20
    fwd_delay_max_ms: int = 80
    dao_delay_ms: int = 100
    mobility_step_ms: int = 1000
    ids_tick_ms: int = 1000


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    duration_ms: int = 1_800_000
    n_sensors: int = 16
    n_attackers: int = 4
    topology: str = "random"  # "random" or "explicit"
    positions: tuple[tuple[int, float, float], ...] = ()
    radio: RadioConfig = field(default_factory=RadioConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    attacker: AttackerConfig = field(default_factory=AttackerConfig)
    ids: IdsConfig = field(default_factory=IdsConfig)
    ids_enabled: bool = False
    objective: ObjectiveMode = ObjectiveMode.MRHOF_ETX
    data_interval_ms: int = 60_000
    data_size_bytes: int = 30
    tuning: Tuning = field(default_factory=Tuning)
    script: tuple[tuple[int, str], ...] = ()  # (t_ms, action) scenario events
    trace_positions: bool = False

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ConfigError("duration must be positive")
        if self.n_sensors < 0 or self.n_attackers < 0:
            raise ConfigError("sensors/attackers must be >= 0")
        if self.n_attackers > self.n_sensors:
            raise ConfigError("attackers must not exceed sensors")
        if self.topology not in ("random", "explicit"):
            raise ConfigError("topology must be 'random' or 'explicit'")
        if self.topology == "explicit":
            given = {addr for addr, _, _ in self.positions}
            if given != set(range(self.n_nodes)):
                raise ConfigError(
                    "positions must cover every node id 0..%d" % (self.n_nodes - 1)
                )
        if self.data_interval_ms <= 0:
            raise ConfigError("data_interval must be positive")

    @property
    def n_nodes(self) -> int:
        return 1 + self.n_sensors + self.n_attackers

    @property
    def root_id(self) -> int:
        return 0

    @property
    def sensor_ids(self) -> range:
        return range(1, 1 + self.n_sensors)

    @property
    def attacker_ids(self) -> range:
        return range(1 + self.n_sensors, self.n_nodes)


@dataclass(frozen=True)
class BatchConfig:
    base: ScenarioConfig
    modes: tuple[str, ...] = MODES
    mobility_modes: tuple[str, ...] = MOBILITY_MODES
    replay_intervals_ms: tuple[int, ...] = (1000, 2000, 3000, 4000)
    seeds: tuple[int, ...] = tuple(range(1, 11))

    def __post_init__(self) -> None:
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError("modes must be among %s" % (MODES,))
        for mob in self.mobility_modes:
            if mob not in MOBILITY_MODES:
                raise ConfigError("mobility_modes must be among %s" % (MOBILITY_MODES,))
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must not repeat")
        if any(iv <= 0 for iv in self.replay_intervals_ms):
            raise ConfigError("replay_intervals must be positive")
        labels = [interval_label(iv) for iv in self.replay_intervals_ms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"replay_intervals must have distinct labels, got {labels}")

    def variants(self):
        """Yield (label, scenario, replay_interval_ms) for the whole grid.

        Baseline ignores the replay interval (no attacker is present), so it
        expands once per mobility mode.
        """
        for mobility_mode in self.mobility_modes:
            for mode in self.modes:
                intervals = (
                    (0,) if mode == "baseline" else self.replay_intervals_ms
                )
                for interval in intervals:
                    yield self._variant(mode, mobility_mode, interval)

    def _variant(self, mode: str, mobility_mode: str, interval_ms: int):
        scenario = make_variant(self.base, mode, mobility_mode, interval_ms)
        return variant_label(mobility_mode, mode, interval_ms), scenario, interval_ms


def interval_label(interval_ms: int) -> str:
    return f"r{interval_ms / 1000:g}s"


def variant_label(mobility_mode: str, mode: str, interval_ms: int) -> str:
    """The one name of a grid cell, as every output file spells it."""
    if mode == "baseline":
        return f"{mobility_mode}-baseline"
    return f"{mobility_mode}-{mode}-{interval_label(interval_ms)}"


def make_variant(
    base: ScenarioConfig, mode: str, mobility_mode: str, replay_interval_ms: int = 0
) -> ScenarioConfig:
    """Specialize the base scenario for one grid cell."""
    if mode not in MODES:
        raise ConfigError("mode must be one of %s" % (MODES,))
    if mobility_mode not in MOBILITY_MODES:
        raise ConfigError("mobility mode must be one of %s" % (MOBILITY_MODES,))
    mobility = replace(
        base.mobility,
        model="static" if mobility_mode == "static" else "random_waypoint",
    )
    kwargs = dict(mobility=mobility, name=f"{base.name}-{mobility_mode}-{mode}")
    if mode == "baseline":
        kwargs["n_attackers"] = 0
        kwargs["ids_enabled"] = False
    else:
        kwargs["ids_enabled"] = mode == "cosec"
        if replay_interval_ms:
            kwargs["attacker"] = replace(
                base.attacker, replay_interval_ms=replay_interval_ms
            )
    return replace(base, **kwargs)


# ---------------------------------------------------------------------------
# on-disk format

_SCHEMA = {
    "scenario": {
        "name",
        "duration_s",
        "sensors",
        "attackers",
        "topology",
        "positions",
        "objective",
        "data_interval_s",
        "data_size_bytes",
        "replications",
        "seeds",
        "modes",
        "mobility_modes",
        "replay_intervals_s",
    },
    "radio": {
        "tx_range_m",
        "base_loss",
        "congestion",
        "airtime_ms",
        "capacity_per_window",
        "window_ms",
        "strobe_ms",
    },
    "mobility": {"speed_min", "speed_max", "area_m", "pause_s"},
    "attacker": {"attack_start_s", "capture"},
    "ids": {
        "safe_interval_ms",
        "block_threshold",
        "delta",
        "node_max",
        "activation_s",
        "check_period_s",
        "sigma_margin_ms",
        "min_gap_mode",
    },
}


def _get(section, key, conv, default, where):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return conv(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"[{where}] {key}: {err}") from err


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split()]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split()]


def _positions(raw: str) -> tuple[tuple[int, float, float], ...]:
    out = []
    for tok in raw.split():
        addr, _, xy = tok.partition(":")
        x, _, y = xy.partition(",")
        out.append((int(addr), float(x), float(y)))
    return tuple(out)


def load_batch(path: str) -> BatchConfig:
    """Parse a config file into a BatchConfig, validating every field."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] unknown key: {key}")

    sc = parser["scenario"] if parser.has_section("scenario") else {}
    ra = parser["radio"] if parser.has_section("radio") else {}
    mo = parser["mobility"] if parser.has_section("mobility") else {}
    at = parser["attacker"] if parser.has_section("attacker") else {}
    ids_s = parser["ids"] if parser.has_section("ids") else {}

    try:
        radio = RadioConfig(
            tx_range_m=_get(ra, "tx_range_m", float, 50.0, "radio"),
            base_loss=_get(ra, "base_loss", float, 0.01, "radio"),
            congestion_model=_get(ra, "congestion", str, "airtime", "radio"),
            airtime_per_msg_ms=_get(ra, "airtime_ms", int, 10, "radio"),
            capacity_per_window=_get(ra, "capacity_per_window", int, 10, "radio"),
            window_ms=_get(ra, "window_ms", int, 100, "radio"),
            strobe_airtime_ms=_get(ra, "strobe_ms", int, 100, "radio"),
        )
        area = _get(mo, "area_m", _floats, [150.0, 150.0], "mobility")
        if len(area) != 2:
            raise ConfigError("[mobility] area_m: need two numbers")
        mobility = MobilityConfig(
            model="static",
            speed_min=_get(mo, "speed_min", float, 1.0, "mobility"),
            speed_max=_get(mo, "speed_max", float, 2.0, "mobility"),
            area=(area[0], area[1]),
            pause_ms=int(_get(mo, "pause_s", float, 0.0, "mobility") * 1000),
        )
        attacker = AttackerConfig(
            replay_interval_ms=1000,
            attack_start_ms=int(_get(at, "attack_start_s", float, 90.0, "attacker") * 1000),
            capture_policy=CapturePolicy(
                _get(at, "capture", str, "first_heard", "attacker")
            ),
        )
        n_sensors = _get(sc, "sensors", int, 16, "scenario")
        n_attackers = _get(sc, "attackers", int, 4, "scenario")
        ids_cfg = IdsConfig(
            safe_interval_ms=_get(ids_s, "safe_interval_ms", int, 500, "ids"),
            block_threshold=_get(ids_s, "block_threshold", int, 5, "ids"),
            fence_delta=_get(ids_s, "delta", float, 1.0, "ids"),
            node_max=_get(ids_s, "node_max", int, 1 + n_sensors + n_attackers, "ids"),
            activation_delay_ms=int(_get(ids_s, "activation_s", float, 120.0, "ids") * 1000),
            check_period_ms=int(_get(ids_s, "check_period_s", float, 30.0, "ids") * 1000),
            sigma_margin_ms=_get(ids_s, "sigma_margin_ms", int, 4500, "ids"),
            min_gap_mode=_get(ids_s, "min_gap_mode", _bool, False, "ids"),
        )
        objective = {
            "mrhof": ObjectiveMode.MRHOF_ETX,
            "of0": ObjectiveMode.OF0,
        }.get(_get(sc, "objective", str, "mrhof", "scenario"))
        if objective is None:
            raise ConfigError("[scenario] objective: must be 'mrhof' or 'of0'")

        base = ScenarioConfig(
            name=_get(sc, "name", str, "scenario", "scenario"),
            duration_ms=int(_get(sc, "duration_s", float, 1800.0, "scenario") * 1000),
            n_sensors=n_sensors,
            n_attackers=n_attackers,
            topology=_get(sc, "topology", str, "random", "scenario"),
            positions=_get(sc, "positions", _positions, (), "scenario"),
            radio=radio,
            mobility=mobility,
            attacker=attacker,
            ids=ids_cfg,
            objective=objective,
            data_interval_ms=int(
                _get(sc, "data_interval_s", float, 60.0, "scenario") * 1000
            ),
            data_size_bytes=_get(sc, "data_size_bytes", int, 30, "scenario"),
        )

        replications = _get(sc, "replications", int, 10, "scenario")
        if replications < 1:
            raise ConfigError("[scenario] replications: must be >= 1")
        seeds = _get(sc, "seeds", _ints, list(range(1, replications + 1)), "scenario")
        modes = tuple(_get(sc, "modes", str, "baseline attack cosec", "scenario").split())
        mobility_modes = tuple(
            _get(sc, "mobility_modes", str, "static mobile", "scenario").split()
        )
        intervals = _get(sc, "replay_intervals_s", _floats, [1.0, 2.0, 3.0, 4.0], "scenario")
        return BatchConfig(
            base=base,
            modes=modes,
            mobility_modes=mobility_modes,
            replay_intervals_ms=tuple(int(s * 1000) for s in intervals),
            seeds=tuple(seeds),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err
