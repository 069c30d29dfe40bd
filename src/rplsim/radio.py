"""Unit-disk propagation with airtime congestion, plus node mobility.

Reachability is a hard disk of ``tx_range_m``: ``Radio.in_range`` gives one
sender the ascending ids of the nodes within range, and the engine computes
that row on the sender's first transmission after positions change.  Every
frame heard at a receiver (addressed to it or not) charges that receiver's
load in the one current congestion window with the frame's airtime (frames
come in time order, so all loads restart at zero when a new window opens);
once a load exceeds ``capacity_per_window * airtime_per_msg_ms``, further
frames to that receiver are lost with probability that escalates with the
excess.  Receivers that are themselves transmitting when a frame lands miss
it outright (half duplex).  Loss is drawn in receiver order as frames are
charged.  A charge is applied only when a draw in the same window reads a
load; charges that no draw reads before the window closes are dropped (in
an attack run most frames are strobes at an addressee that never
acknowledges, and nothing reads their charges).  Loads are integer sums, so
every draw sees the same load as if each frame had been charged on arrival,
and the draws are made in the same number and order.  A unicast reports
whether its addressee acknowledged: the radio is told at construction which
addresses never acknowledge (the attackers), and such an addressee still
uses its loss draw, so the random stream is the same as if it had been
heard and ignored.

Mobility implements the random waypoint model: pick a uniform point in the
area, walk to it at a uniformly drawn speed, pause, repeat.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class RadioConfig:
    tx_range_m: float = 50.0
    base_loss: float = 0.01
    congestion_model: str = "airtime"  # "airtime" or "none"
    airtime_per_msg_ms: int = 10
    capacity_per_window: int = 10
    window_ms: int = 100
    strobe_airtime_ms: int = 100  # occupancy of an unacknowledged unicast try

    def __post_init__(self) -> None:
        if not 0 < self.tx_range_m < math.inf:
            raise ValueError("tx_range_m must be positive and finite")
        if not 0.0 <= self.base_loss < 1.0:
            raise ValueError("base_loss must be in [0, 1)")
        if self.congestion_model not in ("airtime", "none"):
            raise ValueError("congestion_model must be 'airtime' or 'none'")
        if min(self.airtime_per_msg_ms, self.capacity_per_window, self.window_ms) < 1:
            raise ValueError("airtime/capacity/window must be >= 1")
        if self.strobe_airtime_ms < 1:
            raise ValueError("strobe_airtime_ms must be >= 1")

    @property
    def capacity_ms(self) -> int:
        return self.capacity_per_window * self.airtime_per_msg_ms


class Radio:
    """Owns the congestion windows and the loss randomness for one run."""

    def __init__(self, config: RadioConfig, rng, n_nodes: int, silent: Iterable[int] = ()):
        self.config = config
        self.rng = rng
        # addresses that never acknowledge a unicast
        self._silent = frozenset(silent)
        # bound once: deliver runs for every frame
        self._window_ms = config.window_ms
        self._base_loss = config.base_loss
        self._random = rng.random
        # airtime a window holds before frames start to be lost; none: never
        self._capacity_ms = config.capacity_ms if config.congestion_model == "airtime" else math.inf
        # the current window, the airtime each node has heard in it, and the
        # (receivers, airtime) charges of this window not yet added to it
        self._win = 0
        self._occupied = [0] * n_nodes
        self._pending: list[tuple[list[int], int]] = []

    def in_range(self, positions, node: int) -> list[int]:
        """The ascending ids of the other nodes in range of ``node``.

        ``positions`` is indexed by node id.  ``math.dist`` is exactly
        symmetric, so reachability is too.
        """
        here, reach, dist = positions[node], self.config.tx_range_m, math.dist
        return [
            other
            for other, there in enumerate(positions)
            if other != node and dist(here, there) <= reach
        ]

    def deliver(
        self,
        now: int,
        airtime_ms: int,
        receivers: list[int],
        tx_free_at: list[int],
        draw_for: int | None = None,
    ) -> list[int] | bool:
        """Resolve one transmission heard by ``receivers`` (ids, all in range).

        Every receiver's congestion window is charged (interference does not
        care who a frame is addressed to).  ``tx_free_at[r] > now`` marks a
        receiver that is transmitting and so misses the frame.  A unicast
        (``draw_for`` an id) charges every receiver, then draws only for
        ``draw_for``, when it is in range and not busy, and returns whether
        it acknowledged: an addressee that never acknowledges uses its draw
        and returns False.  A broadcast (``draw_for`` None) draws loss for
        each non-busy receiver in list order, right after charging it, and
        returns the ids that got the frame.  ``now`` must not go back to an
        earlier window.

        The radio keeps ``receivers`` until the frame's window ends and
        applies its charges only when a draw in that window reads a load (see
        the module docstring), so the caller must not mutate that list
        afterwards: the engine replaces its in-range rows, never edits them.
        """
        win = now // self._window_ms
        if win != self._win:
            assert win > self._win, "frames must be delivered in time order"
            self._win = win
            self._occupied = [0] * len(self._occupied)
            self._pending = []
        pending = self._pending
        if draw_for is not None:
            pending.append((receivers, airtime_ms))
            if draw_for not in receivers or tx_free_at[draw_for] > now:
                return False
            if draw_for in self._silent:
                self._random()  # heard, so the draw is used; never acknowledged
                return False
        # a draw reads a load: apply the window's pending charges first
        occupied = self._occupied
        for charged, airtime in pending:
            for r in charged:
                occupied[r] += airtime
        pending.clear()
        base_loss, capacity, random = self._base_loss, self._capacity_ms, self._random
        if draw_for is not None:
            p_loss = base_loss
            load = occupied[draw_for]
            if load > capacity:
                p_extra = min(1.0, (load - capacity) / capacity)
                p_loss = 1.0 - (1.0 - p_loss) * (1.0 - p_extra)
            return not random() < p_loss
        # a broadcast charges each receiver right before its draw
        got = []
        for r in receivers:
            load = occupied[r] = occupied[r] + airtime_ms
            if tx_free_at[r] <= now:
                p_loss = base_loss
                if load > capacity:
                    p_extra = min(1.0, (load - capacity) / capacity)
                    p_loss = 1.0 - (1.0 - p_loss) * (1.0 - p_extra)
                if not random() < p_loss:
                    got.append(r)
        return got


@dataclass(frozen=True)
class MobilityConfig:
    model: str = "static"  # "static" or "random_waypoint"
    speed_min: float = 1.0
    speed_max: float = 2.0
    area: tuple[float, float] = (150.0, 150.0)
    pause_ms: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("static", "random_waypoint"):
            raise ValueError("model must be 'static' or 'random_waypoint'")
        if not 0 < self.speed_min <= self.speed_max < math.inf:
            raise ValueError("need 0 < speed_min <= speed_max < inf")
        if not all(0 < side < math.inf for side in self.area):
            raise ValueError("area must be positive and finite")
        if self.pause_ms < 0:
            raise ValueError("pause_ms must be >= 0")


class Mobility:
    """Per-node RNGs keep trajectories independent of who else is mobile."""

    def __init__(self, config: MobilityConfig, rng_factory, mobile_ids: list[int]):
        self.config = config
        self.mobile_ids = list(mobile_ids) if config.model == "random_waypoint" else []
        self._rng = {node_id: rng_factory(node_id) for node_id in self.mobile_ids}
        self._target: dict[int, tuple[float, float]] = {}
        self._speed: dict[int, float] = {}
        self._pause_until: dict[int, int] = {}

    def _new_leg(self, node_id: int) -> None:
        w, h = self.config.area
        rng = self._rng[node_id]
        self._target[node_id] = (rng.random() * w, rng.random() * h)
        self._speed[node_id] = self.config.speed_min + rng.random() * (
            self.config.speed_max - self.config.speed_min
        )

    def move(self, positions: list[list[float]], dt_ms: int, now: int) -> None:
        """Advance every mobile node by dt, updating ``positions[node_id]`` in place."""
        for node_id in self.mobile_ids:
            if self._pause_until.get(node_id, 0) > now:
                continue
            if node_id not in self._target:
                self._new_leg(node_id)
            pos = positions[node_id]
            tx, ty = self._target[node_id]
            dx, dy = tx - pos[0], ty - pos[1]
            dist = math.hypot(dx, dy)
            step = self._speed[node_id] * dt_ms / 1000.0
            if dist <= step:
                pos[0], pos[1] = tx, ty
                del self._target[node_id]
                if self.config.pause_ms:
                    self._pause_until[node_id] = now + self.config.pause_ms
            else:
                pos[0] += dx / dist * step
                pos[1] += dy / dist * step
