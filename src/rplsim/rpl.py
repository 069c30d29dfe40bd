"""Minimal RPL node behavior: DODAG join, rank, trickle, upward data.

This is not a full RFC implementation.  It models exactly what the
surrounding experiments need: DODAG construction from DIO advertisements,
rank computation through the MRHOF objective function (ETX-weighted, with a
parent-switch hysteresis), trickle-driven DIO emission, DIS solicitation
while parentless, link-quality probing of unconfirmed candidates, and
upward-only data forwarding along preferred parents.  Downward DAO traffic
exists purely as airtime.

Node operations return lightweight action tuples (``("probe", addr)``,
``("trickle_reset",)``, ...) that the event engine turns into transmissions.
The module holds routing state only and imports nothing else from
``rplsim``: the detectors, the data packets and their sequence numbers
belong to the engine.  There is one DODAG, so no message carries its id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

MIN_RANK = 128
MRHOF_RANK_FACTOR = 128
PARENT_SWITCH_HYSTERESIS = 192
RANK_RESET_THRESHOLD = 256  # advertise-worthy rank move
ETX_INIT = 1.0
ETX_ALPHA = 0.2  # EWMA weight of the newest link sample
ETX_FAIL_SAMPLE = 4.0
# Trickle (RFC 6206): Imin, the doublings up to Imax, redundancy constant k
TRICKLE_IMIN_MS = 4096
TRICKLE_DOUBLINGS = 8
TRICKLE_IMAX_MS = TRICKLE_IMIN_MS << TRICKLE_DOUBLINGS
TRICKLE_K = 10


class Role(enum.Enum):
    ROOT = "root"
    SENSOR = "sensor"


@dataclass(frozen=True)
class DioMessage:
    src: int
    version: int
    rank: int


@dataclass
class TrickleState:
    """Simplified trickle: one fire per interval, doubling after each fire."""

    interval_ms: int = TRICKLE_IMIN_MS
    counter: int = 0
    generation: int = 0


def trickle_schedule(ts: TrickleState, now: int, rng) -> int:
    """Pick the fire point in the second half of the current interval."""
    ts.generation += 1
    return now + ts.interval_ms // 2 + int(rng.random() * (ts.interval_ms / 2))


def trickle_reset(ts: TrickleState, now: int, rng) -> int:
    ts.interval_ms = TRICKLE_IMIN_MS
    ts.counter = 0
    return trickle_schedule(ts, now, rng)


def trickle_after_fire(ts: TrickleState, now: int, rng) -> int:
    ts.interval_ms = min(ts.interval_ms * 2, TRICKLE_IMAX_MS)
    ts.counter = 0
    return trickle_schedule(ts, now, rng)


@dataclass
class Candidate:
    """What a node knows about one potential parent."""

    addr: int
    advertised_rank: int
    version: int
    etx: float = ETX_INIT
    confirmed: bool = False


@dataclass
class NodeState:
    id: int
    role: Role
    rank: int | None = None
    preferred_parent: int | None = None
    candidates: dict[int, Candidate] = field(default_factory=dict)
    trickle: TrickleState = field(default_factory=TrickleState)
    version: int = 1
    # the last select_parent changed neither parent nor rank, and no input
    # of it has changed since: running it again would change nothing
    settled: bool = False

    def __post_init__(self) -> None:
        if self.role is Role.ROOT:
            self.rank = MIN_RANK

    @property
    def joined(self) -> bool:
        return self.rank is not None


def objective_function(
    candidates: list[tuple[int, int, float]],
    current: tuple[int, int] | None = None,
) -> tuple[int, int] | None:
    """Pick the preferred parent and the resulting own rank.

    ``candidates`` holds (address, advertised rank, etx) triples; ``current``
    is the present (parent address, path cost) when joined.  Ties break on
    the lowest address.  Returns None for an empty candidate list; when a
    current parent is given, a different candidate wins only if it beats the
    current cost by more than the hysteresis margin.
    """
    current_addr = None if current is None else current[0]
    best_addr = best_cost = current_cost = None
    for addr, adv_rank, etx in candidates:
        # rank increase: the ETX floored at 1, scaled by the MRHOF factor
        etx = etx if etx > ETX_INIT else ETX_INIT
        cost = adv_rank + round(MRHOF_RANK_FACTOR * etx)
        if addr == current_addr:
            current_cost = cost
        if best_cost is None or cost < best_cost or (cost == best_cost and addr < best_addr):
            best_addr, best_cost = addr, cost
    if best_addr is None:
        return None
    if current_cost is not None and best_addr != current_addr:
        if best_cost >= current_cost - PARENT_SWITCH_HYSTERESIS:
            return (current_addr, current_cost)
    return (best_addr, best_cost)


def eligible_candidates(node: NodeState) -> list[tuple[int, int, float]]:
    """Confirmed, current-version candidates that do not violate loop rules."""
    version, rank, parent = node.version, node.rank, node.preferred_parent
    # max_depth rule: once joined, never adopt a new parent advertising >= own rank
    return [
        (cand.addr, cand.advertised_rank, cand.etx)
        for cand in node.candidates.values()
        if cand.confirmed
        and cand.version == version
        and (rank is None or cand.addr == parent or cand.advertised_rank < rank)
    ]


def select_parent(node: NodeState) -> list[tuple]:
    """Re-run parent selection; returns actions for any topology change."""
    if node.role is not Role.SENSOR:
        return []
    before = (node.preferred_parent, node.rank)
    current = None
    if node.preferred_parent is not None and node.rank is not None:
        current = before
    choice = objective_function(eligible_candidates(node), current)
    actions: list[tuple] = []
    if choice is None:
        if node.preferred_parent is not None or node.rank is not None:
            node.preferred_parent = None
            node.rank = None
            actions.append(("parent_lost",))
            actions.append(("trickle_reset",))
    else:
        addr, new_rank = choice
        if addr != node.preferred_parent:
            actions.append(("parent_switch", node.preferred_parent, addr))
            actions.append(("send_dao", addr))
            actions.append(("trickle_reset",))
            node.preferred_parent = addr
            node.rank = new_rank
        elif node.rank != new_rank:
            big_move = node.rank is None or abs(new_rank - node.rank) >= RANK_RESET_THRESHOLD
            node.rank = new_rank
            if big_move:
                actions.append(("trickle_reset",))
    # not idempotent otherwise: eligibility reads the rank this call just set
    node.settled = (node.preferred_parent, node.rank) == before
    return actions


def handle_dio(node: NodeState, dio: DioMessage) -> list[tuple]:
    """Digest one accepted DIO; returns protocol actions for the engine.

    Stale-version DIOs and self-echoes are ignored.  A newer version wipes
    routing state and restarts the join.  Unconfirmed senders trigger a link
    probe; confirmed ones refresh their advertisement and may move the
    preferred parent.
    """
    if dio.src == node.id:
        return []
    if dio.version < node.version:
        return []
    actions: list[tuple] = []
    if dio.version > node.version:
        node.version = dio.version
        node.settled = False
        if node.role is Role.SENSOR:
            node.rank = None
            node.preferred_parent = None
        actions.append(("trickle_reset",))

    cand = node.candidates.get(dio.src)
    if cand is None:
        cand = Candidate(addr=dio.src, advertised_rank=dio.rank, version=dio.version)
        node.candidates[dio.src] = cand
    elif cand.advertised_rank != dio.rank or cand.version != dio.version:
        cand.advertised_rank = dio.rank
        cand.version = dio.version
        node.settled = False

    if node.role is Role.ROOT:
        node.trickle.counter += 1
        return actions

    if not cand.confirmed:
        actions.append(("probe", dio.src))
        return actions

    before = (node.preferred_parent, node.rank)
    if not node.settled:
        actions.extend(select_parent(node))
    if (node.preferred_parent, node.rank) == before:
        node.trickle.counter += 1  # consistent advertisement
    return actions


def handle_dis(node: NodeState) -> list[tuple]:
    """A solicitation from a neighbor asks for a fast DIO."""
    if not node.joined:
        return []
    return [("trickle_reset",)]


def note_probe_result(node: NodeState, target: int, ok: bool) -> list[tuple]:
    """Record a bidirectional probe outcome.

    Success admits (or re-validates) the candidate with a fresh ETX; a probe
    with every strobe unanswered is the out-of-range/unresponsive signature
    and retires the link until it is probed again.
    """
    cand = node.candidates.get(target)
    if cand is None:
        return []
    if ok or cand.confirmed:  # a failed probe of an unconfirmed one changes nothing
        node.settled = False
    if ok:
        cand.confirmed = True
        cand.etx = ETX_INIT
    else:
        cand.confirmed = False
    return [] if node.settled else select_parent(node)


def note_link_outcome(
    node: NodeState, neighbor: int, attempts: int, delivered: bool
) -> list[tuple]:
    """Fold a unicast outcome into the neighbor's ETX estimate.

    A fully exhausted attempt chain asks for a liveness probe of the link
    instead of killing it outright: congestion loses some frames, but only a
    vanished neighbor loses a whole probe burst too.
    """
    cand = node.candidates.get(neighbor)
    if cand is None or not cand.confirmed:
        return []
    sample = float(attempts) if delivered else ETX_FAIL_SAMPLE
    cand.etx = (1.0 - ETX_ALPHA) * cand.etx + ETX_ALPHA * sample
    actions: list[tuple] = [] if delivered else [("probe", neighbor)]
    return actions + select_parent(node)


def global_repair(root: NodeState) -> list[tuple]:
    """Bump the DODAG version; a Trickle reset spreads it with the next DIOs."""
    root.version += 1
    return [("trickle_reset",)]

