"""Replay attacker: every decision about it, where it stands (``place``) and
what it sends and when (``attacker_step``); the engine only acts on them.

The attacker stays isolated from the DODAG and holds no routing state, only
the payload it captured: the first DIO it overheard at the newest DODAG
version it overheard, so a global repair does not leave it replaying a
stale version.  It never joins, never answers probes or acknowledges
unicasts, and transmits nothing but that payload, stamped with its own
source address, at a fixed cadence from the attack start onward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .rpl import DioMessage


@dataclass(frozen=True)
class AttackerConfig:
    replay_interval_ms: int = 1000
    attack_start_ms: int = 90_000

    def __post_init__(self) -> None:
        if self.replay_interval_ms <= 0:
            raise ValueError("replay_interval_ms must be positive")
        if self.attack_start_ms < 0:
            raise ValueError("attack_start_ms must be >= 0")


@dataclass
class AttackerState:
    config: AttackerConfig
    captured: DioMessage | None = None
    replay: DioMessage | None = None  # the captured DIO under the attacker's address

    def overhear(self, dio: DioMessage) -> None:
        """Keep the first DIO overheard at the newest version overheard, so
        every replay between version changes is byte-identical."""
        if self.captured is None or dio.version > self.captured.version:
            self.captured, self.replay = dio, None


def place(anchors, reach: float, area, count: int, rng) -> tuple[list[list[float]], list[int]]:
    """Positions for ``count`` attackers, and the indexes left stranded.

    Attacker ``i`` draws up to 100 spots in quadrant ``i % 4`` of ``area`` and
    takes the first within 0.8 x ``reach`` of an anchor (a well-connected
    legitimate node) that no earlier attacker reaches, else its last spot,
    stranded if no anchor is within 0.8 x ``reach`` of it."""
    w, h = area
    placed, stranded = [], []
    for index in range(count):
        qx, qy = index % 2, (index // 2) % 2
        for _ in range(100):
            candidate = [(qx + rng.random()) * w / 2.0, (qy + rng.random()) * h / 2.0]
            victims = [p for p in anchors if math.dist(candidate, p) <= 0.8 * reach]
            if any(all(math.dist(other, p) > reach for other in placed) for p in victims):
                break
        if not victims:
            stranded.append(index)
        placed.append(candidate)
    return placed, stranded


def attacker_step(addr: int, state: AttackerState, now: int) -> tuple[DioMessage | None, int]:
    """One tick: ``(payload or None, next tick)``; ``(None, attack_start_ms)`` before the start.

    From the start on, the next tick is ``now + replay_interval_ms``, and the
    payload is the captured DIO under ``addr`` (None before any capture).
    """
    config = state.config
    if now < config.attack_start_ms:
        return None, config.attack_start_ms
    next_ms = now + config.replay_interval_ms
    if state.captured is None:
        return None, next_ms
    if state.replay is None:
        state.replay = replace(state.captured, src=addr)
    return state.replay, next_ms
