"""Per-node intrusion detection engine for DIO replay/flood senders.

Every protected node keeps two tables keyed by sender address, each holding
at most ``node_max`` senders: a neighbor table with per-sender DIO
bookkeeping (previous/most-recent receipt times, cumulative count) and a
blacklist mapping each suspect to its detection count.  A sender that would
overflow either table is counted in ``overflow_count`` and not tracked.
``process_dio`` runs on every DIO reception.  Checks fall due on the grid
``activation_delay_ms + k * check_period_ms``: the first reception at or
after ``next_check_ms`` runs ``check_malicious`` and moves ``next_check_ms``
to the first grid point after it, so a node that heard nothing for several
periods checks once.  The check fences the neighbor DIO counts with the
upper Tukey limit (delta-scaled IQR) and suspects any sender that is both
above the fence and transmitting with a suspiciously small inter-DIO gap.  A
sender is suspected ``block_threshold - 1`` times (so the threshold is at
least 2); its next detection blocks it permanently, drops its neighbor
entry, and its DIOs are discarded on arrival from then on.

All timestamps are integer virtual milliseconds supplied by the caller; the
module itself never reads a clock, so identical call sequences produce
identical states.  It holds no mutable global state.  ``process_dio``
answers with the trace events it raises, as ``(kind, subject)`` pairs named
by the trace's ``ids_*`` kinds, or ``None`` for a blocked sender's copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .outliers import compute_quartiles


@dataclass
class NeighborEntry:
    """One sender's DIO bookkeeping in the neighbor table."""

    t_previous: int = 0
    t_recent: int = 0
    dio_count: int = 0


@dataclass(frozen=True)
class IdsConfig:
    # A sender is flagged only if its last inter-DIO gap is at most this.
    # The paper's literal rule is 500 ms, which lets the 1-4 s replay
    # cadences of interest through; 4.5 s sits above them.
    gap_threshold_ms: int = 4500
    block_threshold: int = 5
    fence_delta: float = 1.0
    node_max: int = 32
    activation_delay_ms: int = 120_000
    check_period_ms: int = 30_000

    def __post_init__(self) -> None:
        if self.gap_threshold_ms < 1:
            raise ValueError("gap_threshold_ms must be >= 1")
        if self.block_threshold < 2:
            # the first detection only suspects, so a block takes at least two
            raise ValueError("block_threshold must be >= 2")
        if not 0 < self.fence_delta < math.inf:
            raise ValueError("fence_delta must be positive and finite")
        if self.node_max < 1:
            raise ValueError("node_max must be >= 1")
        if self.activation_delay_ms < 0:
            raise ValueError("activation_delay_ms must be >= 0")
        if self.check_period_ms < 1:
            raise ValueError("check_period_ms must be >= 1")


@dataclass
class IdsState:
    """One node's detector, with its tables keyed by sender address."""

    config: IdsConfig
    neighbors: dict[int, NeighborEntry] = field(default_factory=dict)
    # suspect -> detection count; blocked once the count reaches block_threshold
    blacklist: dict[int, int] = field(default_factory=dict)
    overflow_count: int = 0
    next_check_ms: int = field(init=False)

    def __post_init__(self) -> None:
        self.next_check_ms = self.config.activation_delay_ms


def process_dio(state: IdsState, src_ip: int, now: int) -> tuple[tuple[str, int], ...] | None:
    """Account for one received DIO and run the malicious-check if one is due.

    Blocked senders are rejected before any table mutation, with ``None``.
    Known senders get their timestamps shifted and count incremented; unknown
    senders get a fresh entry whose t_previous is 0, so a brand-new
    neighbor's first observed gap is its whole uptime.  When the table is
    full the sender is simply not tracked.  Returns the events in trace
    order: ``("ids_suspect", addr)``s, then ``("ids_block", addr)``s, then
    ``("ids_overflow", src_ip)``; a reception that raises none returns ``()``.
    """
    if state.blacklist.get(src_ip, 0) >= state.config.block_threshold:
        return None

    overflow = ()
    entry = state.neighbors.get(src_ip)
    if entry is not None:
        entry.t_previous = entry.t_recent
        entry.t_recent = now
        entry.dio_count += 1
    elif len(state.neighbors) < state.config.node_max:
        state.neighbors[src_ip] = NeighborEntry(t_recent=now, dio_count=1)
    else:
        overflow = (("ids_overflow", src_ip),)
        state.overflow_count += 1

    if now < state.next_check_ms:
        return overflow
    period = state.config.check_period_ms
    # the first grid point after now, however many points the silence skipped
    state.next_check_ms = now + period - (now - state.config.activation_delay_ms) % period
    suspected, blocked = check_malicious(state)
    return (
        *[("ids_suspect", addr) for addr in suspected],
        *[("ids_block", addr) for addr in blocked],
        *overflow,
    )


def check_malicious(state: IdsState) -> tuple[list[int], list[int]]:
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
        if entry.t_recent - entry.t_previous > cfg.gap_threshold_ms:
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
    return suspected, blocked

