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
import math
from dataclasses import dataclass, field, replace

from .attack import AttackerConfig
from .ids import IdsConfig
from .radio import MobilityConfig, RadioConfig

MODES = ("baseline", "attack", "cosec")
MOBILITY_MODES = ("static", "mobile")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    duration_ms: int = 1_800_000
    n_sensors: int = 16
    n_attackers: int = 4
    # (id, x, y) per node id; when given, the layout, else a random one
    positions: tuple[tuple[int, float, float], ...] = ()
    radio: RadioConfig = field(default_factory=RadioConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    attacker: AttackerConfig = field(default_factory=AttackerConfig)
    ids: IdsConfig = field(default_factory=IdsConfig)
    ids_enabled: bool = False
    data_interval_ms: int = 60_000
    global_repairs_ms: tuple[int, ...] = ()  # times the root starts a global repair
    trace_positions: bool = False

    def __post_init__(self) -> None:
        if any(c in self.name for c in "\t\n\r"):
            # the name lands in run_info, one field of a tab-separated line
            raise ConfigError("name must not contain a tab or a line break")
        if self.duration_ms <= 0:
            raise ConfigError("duration must be positive")
        if self.n_sensors < 0 or self.n_attackers < 0:
            raise ConfigError("sensors/attackers must be >= 0")
        if self.n_attackers > self.n_sensors:
            raise ConfigError("attackers must not exceed sensors")
        if self.positions:
            given = [addr for addr, _, _ in self.positions]
            repeated = sorted({addr for addr in given if given.count(addr) > 1})
            if repeated:
                raise ConfigError(f"positions repeat node id {repeated[0]}")
            if set(given) != set(range(self.n_nodes)):
                raise ConfigError(
                    "positions must cover every node id 0..%d" % (self.n_nodes - 1)
                )
            for addr, x, y in self.positions:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ConfigError(f"positions of node {addr} must be finite")
        if self.data_interval_ms <= 0:
            raise ConfigError("data_interval must be positive")
        if any(not 0 <= t <= self.duration_ms for t in self.global_repairs_ms):
            raise ConfigError("global_repairs_ms must lie within 0..duration_ms")

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
        for axis, allowed in (("modes", MODES), ("mobility_modes", MOBILITY_MODES)):
            values = getattr(self, axis)
            if not values:
                raise ConfigError(f"{axis} must not be empty")
            if not set(values) <= set(allowed) or len(set(values)) != len(values):
                raise ConfigError(f"{axis} must be distinct values among {allowed}")
        if set(self.modes) - {"baseline"}:
            if self.base.n_attackers == 0:
                raise ConfigError("attack and cosec modes need attackers > 0")
            if self.base.attacker.attack_start_ms >= self.base.duration_ms:
                raise ConfigError("attack_start must be before the run ends with attack or cosec")
            if not self.replay_intervals_ms:
                raise ConfigError("replay_intervals must not be empty with attack or cosec")
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
        # an explicit layout keeps only the root's and the sensors' places
        kwargs["positions"] = tuple(p for p in base.positions if p[0] <= base.n_sensors)
    else:
        kwargs["ids_enabled"] = mode == "cosec"
        if replay_interval_ms:
            kwargs["attacker"] = replace(
                base.attacker, replay_interval_ms=replay_interval_ms
            )
    return replace(base, **kwargs)


# ---------------------------------------------------------------------------
# on-disk format


def _ms(raw: str) -> int:
    """Seconds to whole milliseconds, rounded to the nearest."""
    seconds = float(raw)
    if not math.isfinite(seconds):
        raise ValueError(f"seconds must be finite, got {raw}")
    ms = seconds * 1000
    if not math.isfinite(ms):
        raise ValueError(f"too large to count in milliseconds, got {raw}")
    return round(ms)


def _ms_list(raw: str) -> tuple[int, ...]:
    return tuple(_ms(tok) for tok in raw.split())


def _words(raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


def _pair(raw: str) -> tuple[float, float]:
    values = tuple(float(tok) for tok in raw.split())
    if len(values) != 2:
        raise ValueError("need two numbers")
    return values


def _positions(raw: str) -> tuple[tuple[int, float, float], ...]:
    out = []
    for tok in raw.split():
        addr, _, xy = tok.partition(":")
        x, _, y = xy.partition(",")
        out.append((int(addr), float(x), float(y)))
    return tuple(out)


def _replications(raw: str) -> int:
    count = int(raw)
    if count < 1:
        raise ValueError("must be >= 1")
    return count


# section -> INI key -> (field, parser).  [scenario] fills ScenarioConfig and
# BatchConfig (plus ``replications``); every other section fills its own
# dataclass.  Keys left out of a file keep the dataclass field defaults.
_FORMAT = {
    "scenario": {
        "name": ("name", str),
        "duration_s": ("duration_ms", _ms),
        "sensors": ("n_sensors", int),
        "attackers": ("n_attackers", int),
        "positions": ("positions", _positions),
        "data_interval_s": ("data_interval_ms", _ms),
        "replications": ("replications", _replications),
        "modes": ("modes", _words),
        "mobility_modes": ("mobility_modes", _words),
        "replay_intervals_s": ("replay_intervals_ms", _ms_list),
    },
    "radio": {
        "tx_range_m": ("tx_range_m", float),
        "base_loss": ("base_loss", float),
        "congestion": ("congestion_model", str),
        "strobe_ms": ("strobe_airtime_ms", int),
    },
    "mobility": {
        "speed_min": ("speed_min", float),
        "speed_max": ("speed_max", float),
        "area_m": ("area", _pair),
        "pause_s": ("pause_ms", _ms),
    },
    "attacker": {
        "attack_start_s": ("attack_start_ms", _ms),
    },
    "ids": {
        "gap_threshold_ms": ("gap_threshold_ms", int),
        "block_threshold": ("block_threshold", int),
        "delta": ("fence_delta", float),
        "node_max": ("node_max", int),
        "activation_s": ("activation_delay_ms", _ms),
        "check_period_s": ("check_period_ms", _ms),
    },
}
_BATCH_KEYS = ("replications", "modes", "mobility_modes", "replay_intervals_ms")


def _syntax_error(path: str, err: configparser.Error) -> ConfigError:
    """A ``configparser`` syntax error as a ``ConfigError`` naming the file and line."""
    if isinstance(err, configparser.DuplicateOptionError):
        reason = f"[{err.section}] {err.option} is given twice"
    elif isinstance(err, configparser.DuplicateSectionError):
        reason = f"[{err.section}] is given twice"
    elif isinstance(err, configparser.MissingSectionHeaderError):
        reason = "a key comes before any [section] header"
    else:
        reason = "expected 'key = value' or a [section] header"
    # a plain ParsingError lists every bad line; the others carry their own
    line = getattr(err, "lineno", None) or err.errors[0][0]
    return ConfigError(f"{path}, line {line}: {reason}")


def load_batch(path: str) -> BatchConfig:
    """Parse a config file into a BatchConfig, validating every field."""
    # no interpolation: a value is the text as written, ``%`` included
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        found = parser.read(path)
    except (
        configparser.DuplicateOptionError,
        configparser.DuplicateSectionError,
        configparser.ParsingError,
    ) as err:
        raise _syntax_error(path, err) from err
    if not found:
        raise ConfigError(f"cannot read config file: {path}")

    given: dict[str, dict] = {section: {} for section in _FORMAT}
    for section in parser.sections():
        if section not in _FORMAT:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in _FORMAT[section]:
                raise ConfigError(f"[{section}] unknown key: {key}")
            name, parse = _FORMAT[section][key]
            try:
                given[section][name] = parse(raw)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"[{section}] {key}: {err}") from err

    scenario = given["scenario"]
    batch = {key: scenario.pop(key) for key in _BATCH_KEYS if key in scenario}
    if "replications" in batch:
        batch["seeds"] = tuple(range(1, batch.pop("replications") + 1))
    try:
        base = ScenarioConfig(
            **scenario,
            radio=RadioConfig(**given["radio"]),
            mobility=MobilityConfig(**given["mobility"]),
            attacker=AttackerConfig(**given["attacker"]),
            ids=IdsConfig(**given["ids"]),
        )
        return BatchConfig(base=base, **batch)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err
