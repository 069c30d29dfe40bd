"""Scripted DIO traces that drive every branch of the detection engine.

Each scenario is a plain function that builds a state, feeds it a scripted
trace, and asserts hand-computed golden snapshots.  The individual tests in
test_ids.py call them one by one; the acceptance suite replays them all under
a line tracer to certify full coverage of the ids module.
"""

from __future__ import annotations

from rplsim import ids
from rplsim.ids import (
    IdsConfig,
    IdsState,
    NeighborEntry,
    check_malicious,
    process_dio,
)

ATTACK_COUNTS = [7, 8, 6, 1, 4, 2]  # legit neighbor counts alongside a flooder
FLAT_COUNTS = [3, 4, 5, 3, 4]  # low-spread background for fence tests
# an activation later than every reception of the scenarios that take it:
# none of their receptions runs a check until the scenario sets next_check_ms
LATE_ACTIVATION_MS = 2_000_000


def fresh_state(**overrides) -> IdsState:
    return IdsState(IdsConfig(**overrides))


def is_blocked(state: IdsState, addr: int) -> bool:
    return state.blacklist.get(addr, 0) >= state.config.block_threshold


def snapshot(state: IdsState) -> dict:
    """Serializable view of the full state, for golden tests and debugging."""
    return {
        "neighbors": [
            [addr, e.t_previous, e.t_recent, e.dio_count]
            for addr, e in sorted(state.neighbors.items())
        ],
        "blacklist": [
            [addr, count, is_blocked(state, addr)] for addr, count in state.blacklist.items()
        ],
        "next_check_ms": state.next_check_ms,
        "overflow_count": state.overflow_count,
    }


def scenario_insert_update():
    """Insert then update one sender."""
    state = fresh_state(node_max=4)
    assert snapshot(state) == {
        "neighbors": [],
        "blacklist": [],
        "next_check_ms": 120_000,
        "overflow_count": 0,
    }

    assert process_dio(state, 7, 1000) == ()
    assert snapshot(state) == {
        "neighbors": [[7, 0, 1000, 1]],
        "blacklist": [],
        "next_check_ms": 120_000,
        "overflow_count": 0,
    }

    assert process_dio(state, 7, 1200) == ()
    assert snapshot(state)["neighbors"] == [[7, 1000, 1200, 2]]
    assert len(state.neighbors) == 1


def scenario_early_detection_no_mutation():
    """A permanently blocked sender is rejected before any table touch."""
    state = fresh_state(node_max=4)
    process_dio(state, 3, 500)
    state.blacklist[3] = 5

    before = snapshot(state)
    assert process_dio(state, 3, 900) is None
    assert snapshot(state) == before

    # merely suspected senders are still accepted and tracked
    state.blacklist[3] = 2
    assert process_dio(state, 3, 900) == ()
    assert snapshot(state)["neighbors"] == [[3, 500, 900, 2]]


def scenario_table_overflow():
    """A full neighbor table drops tracking for new senders, with a count."""
    state = fresh_state(node_max=2)
    assert process_dio(state, 11, 100) == ()
    assert process_dio(state, 22, 200) == ()
    assert process_dio(state, 33, 300) == (("ids_overflow", 33),)
    assert snapshot(state) == {
        "neighbors": [[11, 0, 100, 1], [22, 0, 200, 1]],
        "blacklist": [],
        "next_check_ms": 120_000,
        "overflow_count": 1,
    }


def _populate(state, counts, base_t=1000, spacing=10_000):
    """Give neighbor i+1 counts[i] DIOs with wide (unsuspicious) gaps."""
    for i, count in enumerate(counts):
        for k in range(count):
            process_dio(state, i + 1, base_t * (i + 1) + k * spacing)


def scenario_check_clean_sample():
    """No count above the fence: the check is a no-op either way."""
    state = fresh_state(node_max=8)
    _populate(state, [9, 1, 3, 6, 5, 1])
    assert check_malicious(state) == ([], [])
    assert snapshot(state)["blacklist"] == []


def scenario_check_empty_and_single():
    """Empty table is a no-op; a lone neighbor can never exceed its fence."""
    state = fresh_state(node_max=4)
    assert check_malicious(state) == ([], [])

    for k in range(500):
        process_dio(state, 6, 1000 + k * 100)
    assert check_malicious(state) == ([], [])
    assert state.blacklist == {}


def scenario_gap_guard():
    """Outlier count alone is not enough: the inter-DIO gap must be small."""

    def build(last_gap, **cfg):
        state = fresh_state(node_max=8, activation_delay_ms=LATE_ACTIVATION_MS, **cfg)
        _populate(state, FLAT_COUNTS)
        t = 1_000_000
        for k in range(50):
            process_dio(state, 9, t + k * 5000)
        process_dio(state, 9, t + 49 * 5000 + last_gap)
        return state

    # counts [3,4,5,3,4,51]: q1 3, q3 5, iqr 2, fence 7 -> 51 exceeds
    slow = build(4501)
    assert check_malicious(slow) == ([], [])

    fast = build(4500)
    assert check_malicious(fast) == ([9], [])
    assert snapshot(fast)["blacklist"] == [[9, 1, False]]

    # the paper's literal 500 ms rule
    assert check_malicious(build(501, gap_threshold_ms=500)) == ([], [])
    assert check_malicious(build(500, gap_threshold_ms=500)) == ([9], [])


def scenario_escalation_to_block():
    """Detections accumulate across checks until the permanent block."""
    cfg_max = 8
    state = fresh_state(node_max=cfg_max, activation_delay_ms=LATE_ACTIVATION_MS)
    _populate(state, ATTACK_COUNTS)
    attacker = 9
    t = 1_000_000
    for k in range(166):
        process_dio(state, attacker, t + k * 200)
    t += 166 * 200

    block_at = state.config.block_threshold
    for round_no in range(1, block_at + 1):
        state.next_check_ms = t
        v = process_dio(state, attacker, t + 200)
        t += 40_000  # beyond one check period before the next round
        if round_no < block_at:
            assert v == (("ids_suspect", attacker),)
            assert snapshot(state)["blacklist"] == [[attacker, round_no, False]]
            # re-prime a small gap for the next round's trigger reception;
            # the check this falls due for sees a 39.8 s gap and flags no one
            process_dio(state, attacker, t)
        else:
            assert v == (("ids_block", attacker),)

    assert snapshot(state) == {
        "neighbors": [
            [i + 1, 1000 * (i + 1) + (c - 2) * 10_000, 1000 * (i + 1) + (c - 1) * 10_000, c]
            if c > 1
            else [i + 1, 0, 1000 * (i + 1), 1]
            for i, c in enumerate(ATTACK_COUNTS)
        ],
        "blacklist": [[attacker, block_at, True]],
        # the grid point after the last check, at 1,193,400 ms
        "next_check_ms": 1_220_000,
        "overflow_count": 0,
    }

    # monotone blocking from now on
    for dt in (1, 2, 3):
        assert process_dio(state, attacker, t + dt) is None
    assert len(state.neighbors) == len(ATTACK_COUNTS)


def scenario_blocked_record_guard():
    """A record already at the threshold is never incremented again."""
    state = fresh_state(node_max=8)
    state.neighbors[9] = NeighborEntry(t_previous=1000, t_recent=1200, dio_count=500)
    for i, count in enumerate([2, 3, 3, 4, 4]):
        state.neighbors[i + 1] = NeighborEntry(t_previous=0, t_recent=900, dio_count=count)
    state.blacklist[9] = 5

    # counts [2,3,3,4,4,500]: fence 5, so 9 is flagged with a 200 ms gap,
    # but its record is already at the threshold and stays untouched
    assert check_malicious(state) == ([], [])
    assert snapshot(state)["blacklist"] == [[9, 5, True]]


def scenario_blacklist_overflow():
    """A full blacklist cannot take new suspects; the event is counted."""
    state = fresh_state(node_max=6, activation_delay_ms=LATE_ACTIVATION_MS)
    _populate(state, FLAT_COUNTS)
    t = 1_000_000
    for k in range(51):
        process_dio(state, 9, t + k * 200)
    state.blacklist = {100 + i: 1 for i in range(6)}

    assert check_malicious(state) == ([], [])
    assert state.overflow_count == 1
    assert len(state.blacklist) == 6


def scenario_remove_entry():
    """Blocking a sender frees its place in a full neighbor table."""
    # six is the smallest table whose top count can clear a delta-1 fence
    state = fresh_state(node_max=6, block_threshold=2, activation_delay_ms=LATE_ACTIVATION_MS)
    _populate(state, FLAT_COUNTS)
    attacker, newcomer = 9, 10
    t = 1_000_000
    for k in range(51):
        process_dio(state, attacker, t + k * 200)
    t += 50 * 200
    assert process_dio(state, newcomer, t + 50) == (("ids_overflow", newcomer),)  # not tracked

    assert check_malicious(state) == ([attacker], [])
    process_dio(state, attacker, t + 200)
    assert check_malicious(state) == ([], [attacker])
    assert sorted(state.neighbors) == [1, 2, 3, 4, 5]
    assert snapshot(state)["blacklist"] == [[attacker, 2, True]]

    assert process_dio(state, newcomer, t + 300) == ()
    assert snapshot(state)["neighbors"][-1] == [newcomer, 0, t + 300, 1]
    assert state.overflow_count == 1


def scenario_event_order():
    """One reception's events come suspects first, then blocks, then its overflow."""
    counts = FLAT_COUNTS + [3, 5, 4, 4]  # nine legitimate neighbors keep the fence low
    state = fresh_state(
        node_max=len(counts) + 2, block_threshold=2, activation_delay_ms=LATE_ACTIVATION_MS
    )
    _populate(state, counts)
    blocked, suspected, newcomer = 20, 21, 30
    t = 1_000_000
    for k in range(51):
        process_dio(state, blocked, t + k * 200)
        process_dio(state, suspected, t + k * 200 + 100)
    state.blacklist[blocked] = 1  # one detection short of the block
    t += 51 * 200

    # counts [3,3,3,4,4,4,4,5,5,51,51]: fence 7; both flooders exceed it and
    # the check visits the blocked one first, yet its block comes second
    state.next_check_ms = t
    assert process_dio(state, newcomer, t) == (
        ("ids_suspect", suspected),
        ("ids_block", blocked),
        ("ids_overflow", newcomer),
    )
    assert snapshot(state)["blacklist"] == [[blocked, 2, True], [suspected, 1, False]]
    assert blocked not in state.neighbors and newcomer not in state.neighbors
    assert state.overflow_count == 1


def scenario_check_schedule():
    """Checks fall due at activation, then on its grid of check periods."""
    state = fresh_state()
    checks = []
    original = ids.check_malicious

    def counting(checked_state):
        checks.append(checked_state)
        return original(checked_state)

    ids.check_malicious = counting  # process_dio looks it up on the module
    try:
        for now, checked, next_check in [
            (119_999, False, 120_000),
            (120_000, True, 150_000),
            (121_000, False, 150_000),
            (149_999, False, 150_000),
            (150_000, True, 180_000),
            # a silence of more than one period: one check, then the grid again
            (250_000, True, 270_000),
            (269_999, False, 270_000),
            (270_000, True, 300_000),
        ]:
            before = len(checks)
            assert process_dio(state, 1, now) == ()
            assert len(checks) - before == checked
            assert state.next_check_ms == next_check
    finally:
        ids.check_malicious = original


def scenario_config_validation():
    """Every config bound is enforced, and the gap threshold defaults to 4.5 s."""
    for bad in (
        dict(gap_threshold_ms=0),
        dict(gap_threshold_ms=-1),
        dict(block_threshold=0),
        dict(block_threshold=1),
        dict(fence_delta=0.0),
        dict(node_max=0),
        dict(activation_delay_ms=-5),
        dict(check_period_ms=0),
        dict(check_period_ms=-30_000),
    ):
        try:
            IdsConfig(**bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected rejection of {bad}")
    assert IdsConfig().gap_threshold_ms == 4500


SCENARIOS = [
    scenario_config_validation,
    scenario_insert_update,
    scenario_early_detection_no_mutation,
    scenario_table_overflow,
    scenario_check_clean_sample,
    scenario_check_empty_and_single,
    scenario_gap_guard,
    scenario_escalation_to_block,
    scenario_blocked_record_guard,
    scenario_blacklist_overflow,
    scenario_remove_entry,
    scenario_event_order,
    scenario_check_schedule,
]


def run_all():
    for fn in SCENARIOS:
        fn()
