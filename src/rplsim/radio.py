"""Unit-disk propagation with airtime congestion, plus node mobility.

Reachability is a hard disk of ``tx_range_m``: ``Radio.in_range_lists`` gives
every sender the ascending ids of the nodes within range, and the engine
rebuilds those lists whenever positions change.  Every frame heard at a
receiver (addressed to it or not) charges that receiver's load in the one
current congestion window with the frame's airtime (frames come in time
order, so all loads restart at zero when a new window opens); once a load
exceeds ``capacity_per_window * airtime_per_msg_ms``, further frames to that
receiver are lost with probability that escalates with the excess.  Receivers
that are themselves transmitting when a frame lands miss it outright (half
duplex).  Loss is drawn in receiver order as frames are charged.

Mobility implements the random waypoint model: pick a uniform point in the
area, walk to it at a uniformly drawn speed, pause, repeat.
"""

from __future__ import annotations

import math
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
        if self.tx_range_m <= 0:
            raise ValueError("tx_range_m must be positive")
        if not 0.0 <= self.base_loss < 1.0:
            raise ValueError("base_loss must be in [0, 1)")
        if self.congestion_model not in ("airtime", "none"):
            raise ValueError("congestion_model must be 'airtime' or 'none'")
        if min(self.airtime_per_msg_ms, self.capacity_per_window, self.window_ms) < 1:
            raise ValueError("airtime/capacity/window must be >= 1")

    @property
    def capacity_ms(self) -> int:
        return self.capacity_per_window * self.airtime_per_msg_ms


class Radio:
    """Owns the congestion windows and the loss randomness for one run."""

    def __init__(self, config: RadioConfig, rng, n_nodes: int):
        self.config = config
        self.rng = rng
        # bound once: deliver runs for every frame
        self._window_ms = config.window_ms
        self._base_loss = config.base_loss
        self._random = rng.random
        # airtime a window holds before frames start to be lost; none: never
        self._capacity_ms = config.capacity_ms if config.congestion_model == "airtime" else math.inf
        # the current window, and the airtime each node has heard in it
        self._win = 0
        self._occupied = [0] * n_nodes

    def in_range_lists(self, positions) -> list[list[int]]:
        """For each node id, the ascending ids of the other nodes in range.

        ``positions`` is indexed by node id.  Each pair's distance is
        computed once, so reachability is symmetric by construction.
        """
        reach = self.config.tx_range_m
        lists: list[list[int]] = [[] for _ in positions]
        for a, pos_a in enumerate(positions):
            for b in range(a + 1, len(positions)):
                if math.dist(pos_a, positions[b]) <= reach:
                    lists[a].append(b)
                    lists[b].append(a)
        return lists

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
        receiver that is transmitting and so misses the frame.  A broadcast
        (``draw_for`` None) draws loss for each non-busy receiver in list
        order, right after charging it, and returns the ids that got the
        frame.  A unicast charges every receiver, then draws only for
        ``draw_for``, when it is in range and not busy, and returns whether
        it got the frame.  ``now`` must not go back to an earlier window.
        """
        win = now // self._window_ms
        occupied = self._occupied
        if win != self._win:
            assert win > self._win, "frames must be delivered in time order"
            self._win = win
            occupied = self._occupied = [0] * len(occupied)
        base_loss, capacity, random = self._base_loss, self._capacity_ms, self._random
        if draw_for is None:
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
        for r in receivers:
            occupied[r] += airtime_ms
        if draw_for not in receivers or tx_free_at[draw_for] > now:
            return False
        p_loss = base_loss
        load = occupied[draw_for]
        if load > capacity:
            p_extra = min(1.0, (load - capacity) / capacity)
            p_loss = 1.0 - (1.0 - p_loss) * (1.0 - p_extra)
        return not random() < p_loss


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
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if min(self.area) <= 0:
            raise ValueError("area must be positive")


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

    def move(self, positions: dict[int, list[float]], dt_ms: int, now: int) -> None:
        """Advance every mobile node by dt."""
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
