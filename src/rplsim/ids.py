"""Per-node intrusion detection engine for DIO replay/flood senders.

Every protected node keeps two fixed-capacity tables: a neighbor table with
per-sender DIO bookkeeping (previous/most-recent receipt times, cumulative
count) and a blacklist with per-suspect detection counts.  ``process_dio``
runs on every DIO reception; a periodic flag armed by ``tick`` makes the next
reception run ``check_malicious``, which fences the neighbor DIO counts with
the upper Tukey limit (delta-scaled IQR) and suspects any sender that is both
above the fence and transmitting with a suspiciously small inter-DIO gap.
After ``block_threshold`` detections a sender is permanently blocked and its
DIOs are discarded on arrival.

All timestamps are integer virtual milliseconds supplied by the caller; the
module itself never reads a clock, so identical call sequences produce
identical states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .outliers import compute_quartiles

NULL_ADDR = None  # empty-slot marker


@dataclass
class NeighborEntry:
    """One neighbor table slot; ``addr is None`` marks an empty slot."""

    addr: int | None = NULL_ADDR
    t_previous: int = 0
    t_recent: int = 0
    dio_count: int = 0
    # smallest inter-DIO gap observed since the last malicious-check
    min_gap_ms: int | None = None


@dataclass
class BlacklistEntry:
    """One blacklist slot; ``blocked`` False means merely suspected."""

    addr: int | None = NULL_ADDR
    detection_count: int = 0
    blocked: bool = False


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
        if self.block_threshold < 1:
            raise ValueError("block_threshold must be >= 1")
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
    """One node's detector; ``init_tables`` fills the tables on first use."""

    config: IdsConfig
    neighbors: list[NeighborEntry] = field(default_factory=list)
    blacklist: list[BlacklistEntry] = field(default_factory=list)
    t_nodes: int = 0
    n_blacklist: int = 0
    initialized: bool = False
    active: bool = False
    last_armed_ms: int | None = None
    overflow_count: int = 0

    def live_neighbors(self) -> list[tuple[int, NeighborEntry]]:
        return [
            (slot, entry)
            for slot, entry in enumerate(self.neighbors)
            if entry.addr is not NULL_ADDR
        ]

    def find_blacklist(self, addr: int) -> BlacklistEntry | None:
        for entry in self.blacklist[: self.n_blacklist]:
            if entry.addr == addr:
                return entry
        return None

    def is_blocked(self, addr: int) -> bool:
        entry = self.find_blacklist(addr)
        return entry is not None and entry.blocked


def init_tables(state: IdsState) -> None:
    """Reset both tables to all-empty slots and zero the counters."""
    cfg = state.config
    state.neighbors = [NeighborEntry() for _ in range(cfg.node_max)]
    state.blacklist = [BlacklistEntry() for _ in range(cfg.node_max)]
    state.t_nodes = 0
    state.n_blacklist = 0
    state.initialized = True
    state.active = False
    state.last_armed_ms = None
    state.overflow_count = 0


def process_dio(state: IdsState, src_ip: int, now: int) -> DioVerdict:
    """Account for one received DIO and run any due malicious-check.

    Blocked senders are rejected before any table mutation.  Known senders
    get their timestamps shifted and count incremented; unknown senders
    occupy the first empty slot (keeping the slot's zeroed t_recent as the
    new t_previous, so a brand-new neighbor's first observed gap is its whole
    uptime).  When the table is full the sender is simply not tracked.
    """
    if not state.initialized:
        init_tables(state)

    if state.is_blocked(src_ip):
        return DioVerdict(Verdict.DISCARD_BLOCKED)

    known = False
    for entry in state.neighbors:
        if entry.addr == src_ip:
            known = True
            gap = now - entry.t_recent
            entry.t_previous = entry.t_recent
            entry.t_recent = now
            entry.dio_count += 1
            if entry.min_gap_ms is None or gap < entry.min_gap_ms:
                entry.min_gap_ms = gap
            break

    overflow = False
    if not known:
        for entry in state.neighbors:
            if entry.addr is NULL_ADDR:
                entry.addr = src_ip
                entry.t_previous = entry.t_recent
                entry.t_recent = now
                entry.dio_count = 1
                entry.min_gap_ms = None
                state.t_nodes += 1
                break
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
    """Fence the live neighbors' DIO counts and escalate the violators.

    Returns (suspicion events, permanent blocks) for this check.  A neighbor
    is flagged only when its count strictly exceeds the upper fence AND its
    inter-DIO gap is within the configured threshold; whole records travel
    through the count sort so addresses stay tied to their statistics.
    """
    if not state.initialized:
        init_tables(state)
    cfg = state.config
    live = state.live_neighbors()
    if not live:
        return [], []
    if len(live) > 1:
        live.sort(key=lambda pair: (pair[1].dio_count, pair[1].addr))
    summary = compute_quartiles((e.dio_count for _, e in live), cfg.fence_delta)

    suspected: list[int] = []
    blocked: list[int] = []
    for slot, entry in live:
        if not entry.dio_count > summary.upper_limit:
            continue
        if cfg.min_gap_mode:
            gap = entry.min_gap_ms
        else:
            gap = entry.t_recent - entry.t_previous
        if gap is None or gap > cfg.gap_threshold_ms:
            continue
        addr = entry.addr
        assert addr is not NULL_ADDR
        record = state.find_blacklist(addr)
        if record is None:
            if state.n_blacklist >= cfg.node_max:
                state.overflow_count += 1
                continue
            slot_entry = state.blacklist[state.n_blacklist]
            slot_entry.addr = addr
            slot_entry.detection_count = 1
            slot_entry.blocked = False
            state.n_blacklist += 1
            suspected.append(addr)
        elif record.detection_count < cfg.block_threshold:
            record.detection_count += 1
            if record.detection_count == cfg.block_threshold:
                record.blocked = True
                blocked.append(addr)
                remove_neighbor_entry(state, slot)
            else:
                suspected.append(addr)

    for _, entry in state.live_neighbors():
        entry.min_gap_ms = None
    return suspected, blocked


def remove_neighbor_entry(state: IdsState, slot: int) -> None:
    """Clear one neighbor slot; decrements the live count if it was live."""
    if not 0 <= slot < len(state.neighbors):
        raise IndexError("bad slot")
    entry = state.neighbors[slot]
    if entry.addr is not NULL_ADDR:
        state.t_nodes -= 1
    state.neighbors[slot] = NeighborEntry()


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
            [e.addr, e.t_previous, e.t_recent, e.dio_count]
            for e in state.neighbors
            if e.addr is not NULL_ADDR
        ],
        "blacklist": [
            [e.addr, e.detection_count, e.blocked]
            for e in state.blacklist[: state.n_blacklist]
        ],
        "t_nodes": state.t_nodes,
        "n_blacklist": state.n_blacklist,
        "initialized": state.initialized,
        "active": state.active,
        "overflow_count": state.overflow_count,
    }
