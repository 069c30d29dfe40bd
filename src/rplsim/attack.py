"""Replay attacker: capture a legitimate DIO, re-multicast it forever.

The attacker stays fully isolated from the DODAG and holds no routing
state, only the payload it captured: the first DIO it overheard at the
newest DODAG version it overheard, so a global repair does not leave it
replaying a stale version.  It never joins, never answers probes or
acknowledges unicasts, and transmits nothing but that payload, stamped with
its own source address, at a fixed cadence from the attack start onward.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def attacker_step(addr: int, state: AttackerState, now: int) -> DioMessage | None:
    """One replay tick: the captured payload under the attacker's address.

    Returns None (silent skip) before the attack start or while nothing has
    been captured yet, and otherwise the same frozen message until a newer
    version is captured.
    """
    if now < state.config.attack_start_ms or state.captured is None:
        return None
    if state.replay is None:
        captured = state.captured
        state.replay = DioMessage(src=addr, version=captured.version, rank=captured.rank)
    return state.replay
