"""Per-node intrusion detection engine for DIO replay/flood senders.

Every protected node keeps two tables keyed by sender address, each holding
at most ``node_max`` senders: a neighbor table with per-sender DIO
bookkeeping (previous/most-recent receipt times, cumulative count) and a
blacklist mapping each suspect to its detection count.  A sender that would
overflow either table is counted in ``overflow_count`` and not tracked.
``process_dio`` runs on every DIO reception; a periodic flag armed by
``tick`` makes the next reception run ``check_malicious``, which fences the
neighbor DIO counts with the upper Tukey limit (delta-scaled IQR) and
suspects any sender that is both above the fence and transmitting with a
suspiciously small inter-DIO gap.  A sender is suspected
``block_threshold - 1`` times (so the threshold is at least 2); its next
detection blocks it permanently, drops its neighbor entry, and its DIOs are
discarded on arrival from then on.

All timestamps are integer virtual milliseconds supplied by the caller; the
module itself never reads a clock, so identical call sequences produce
identical states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .outliers import compute_quartiles


@dataclass
class NeighborEntry:
    """One sender's DIO bookkeeping in the neighbor table."""

    t_previous: int = 0
    t_recent: int = 0
    dio_count: int = 0
    # smallest inter-DIO gap observed since the last malicious-check
    min_gap_ms: int | None = None


@dataclass(frozen=True)
class IdsConfig:
    safe_interval_ms: int = 500
    block_threshold: int = 5
    fence_delta: float = 1.0
    node_max: int = 32
    activation_delay_ms: int = 120_000
    check_period_ms: int = 30_000
    # Replay cadences of interest (1-4 s) exceed the 500 ms safe interval, so
    # the gap comparison uses max(safe_interval_ms, sigma_margin_ms) unless
    # min_gap_mode compares the windowed minimum gap against the raw value.
    sigma_margin_ms: int = 4500
    min_gap_mode: bool = False

    def __post_init__(self) -> None:
        if self.safe_interval_ms <= 0:
            raise ValueError("safe_interval_ms must be positive")
        if self.block_threshold < 2:
            # the first detection only suspects, so a block takes at least two
            raise ValueError("block_threshold must be >= 2")
        if self.fence_delta <= 0:
            raise ValueError("fence_delta must be positive")
        if self.node_max < 1:
            raise ValueError("node_max must be >= 1")

    @property
    def gap_threshold_ms(self) -> int:
        if self.min_gap_mode:
            return self.safe_interval_ms
        return max(self.safe_interval_ms, self.sigma_margin_ms)


class Verdict(enum.Enum):
    ACCEPT = "accept"
    DISCARD_BLOCKED = "discard_blocked"


@dataclass
class DioVerdict:
    """Outcome of one DIO reception.

    ``newly_suspected`` lists the suspicion events raised by an embedded
    malicious-check (first detection and repeat detections short of the block
    threshold); ``newly_blocked`` lists senders that reached the threshold on
    this reception.
    """

    verdict: Verdict
    newly_suspected: list[int] = field(default_factory=list)
    newly_blocked: list[int] = field(default_factory=list)
    overflow: bool = False


@dataclass
class IdsState:
    """One node's detector, with its tables keyed by sender address."""

    config: IdsConfig
    neighbors: dict[int, NeighborEntry] = field(default_factory=dict)
    # suspect -> detection count; blocked once the count reaches block_threshold
    blacklist: dict[int, int] = field(default_factory=dict)
    active: bool = False
    last_armed_ms: int | None = None
    overflow_count: int = 0

    def is_blocked(self, addr: int) -> bool:
        return self.blacklist.get(addr, 0) >= self.config.block_threshold


def process_dio(state: IdsState, src_ip: int, now: int) -> DioVerdict:
    """Account for one received DIO and run any due malicious-check.

    Blocked senders are rejected before any table mutation.  Known senders
    get their timestamps shifted and count incremented; unknown senders get
    a fresh entry whose t_previous is 0, so a brand-new neighbor's first
    observed gap is its whole uptime.  When the table is full the sender is
    simply not tracked.
    """
    if state.is_blocked(src_ip):
        return DioVerdict(Verdict.DISCARD_BLOCKED)

    overflow = False
    entry = state.neighbors.get(src_ip)
    if entry is not None:
        gap = now - entry.t_recent
        entry.t_previous = entry.t_recent
        entry.t_recent = now
        entry.dio_count += 1
        if entry.min_gap_ms is None or gap < entry.min_gap_ms:
            entry.min_gap_ms = gap
    elif len(state.neighbors) < state.config.node_max:
        state.neighbors[src_ip] = NeighborEntry(t_recent=now, dio_count=1)
    else:
        overflow = True
        state.overflow_count += 1

    suspected: list[int] = []
    blocked: list[int] = []
    if state.active:
        suspected, blocked = check_malicious(state, now)
        state.active = False
    return DioVerdict(Verdict.ACCEPT, suspected, blocked, overflow)


def check_malicious(state: IdsState, now: int) -> tuple[list[int], list[int]]:
    """Fence the neighbors' DIO counts and escalate the violators.

    Returns (suspicion events, permanent blocks) for this check.  A neighbor
    is flagged only when its count strictly exceeds the upper fence AND its
    inter-DIO gap is within the configured threshold; neighbors are visited
    in (count, address) order, so violators come out in that order.
    """
    cfg = state.config
    if not state.neighbors:
        return [], []
    live = sorted(state.neighbors.items(), key=lambda item: (item[1].dio_count, item[0]))
    summary = compute_quartiles((e.dio_count for _, e in live), cfg.fence_delta)

    suspected: list[int] = []
    blocked: list[int] = []
    for addr, entry in live:
        if not entry.dio_count > summary.upper_limit:
            continue
        if cfg.min_gap_mode:
            gap = entry.min_gap_ms
        else:
            gap = entry.t_recent - entry.t_previous
        if gap is None or gap > cfg.gap_threshold_ms:
            continue
        count = state.blacklist.get(addr)
        if count is None:
            if len(state.blacklist) >= cfg.node_max:
                state.overflow_count += 1
                continue
            state.blacklist[addr] = 1
            suspected.append(addr)
        elif count < cfg.block_threshold:
            count += 1
            state.blacklist[addr] = count
            if count == cfg.block_threshold:
                blocked.append(addr)
                del state.neighbors[addr]
            else:
                suspected.append(addr)

    for entry in state.neighbors.values():
        entry.min_gap_ms = None
    return suspected, blocked


def tick(state: IdsState, now: int) -> None:
    """Arm the malicious-check flag once per check period after activation."""
    cfg = state.config
    if now < cfg.activation_delay_ms:
        return
    if state.last_armed_ms is None or now - state.last_armed_ms >= cfg.check_period_ms:
        state.active = True
        state.last_armed_ms = now


def snapshot(state: IdsState) -> dict:
    """Serializable view of the full state, for golden tests and debugging."""
    return {
        "neighbors": [
            [addr, e.t_previous, e.t_recent, e.dio_count]
            for addr, e in sorted(state.neighbors.items())
        ],
        "blacklist": [
            [addr, count, state.is_blocked(addr)] for addr, count in state.blacklist.items()
        ],
        "active": state.active,
        "overflow_count": state.overflow_count,
    }
