"""Scripted DIO traces that drive every branch of the detection engine.

Each scenario is a plain function that builds a state, feeds it a scripted
trace, and asserts hand-computed golden snapshots.  The individual tests in
test_ids.py call them one by one; the acceptance suite replays them all under
a line tracer to certify full coverage of the ids module.
"""

from __future__ import annotations

from rplsim.ids import (
    IdsConfig,
    IdsState,
    NeighborEntry,
    Verdict,
    check_malicious,
    process_dio,
    snapshot,
    tick,
)

ATTACK_COUNTS = [7, 8, 6, 1, 4, 2]  # legit neighbor counts alongside a flooder
FLAT_COUNTS = [3, 4, 5, 3, 4]  # low-spread background for fence tests


def fresh_state(**overrides) -> IdsState:
    return IdsState(IdsConfig(**overrides))


def scenario_insert_update():
    """Insert then update one sender."""
    state = fresh_state(node_max=4)
    assert snapshot(state) == {
        "neighbors": [],
        "blacklist": [],
        "active": False,
        "overflow_count": 0,
    }

    v = process_dio(state, 7, 1000)
    assert v.verdict is Verdict.ACCEPT and not v.overflow
    assert snapshot(state) == {
        "neighbors": [[7, 0, 1000, 1]],
        "blacklist": [],
        "active": False,
        "overflow_count": 0,
    }

    v = process_dio(state, 7, 1200)
    assert v.verdict is Verdict.ACCEPT
    assert snapshot(state)["neighbors"] == [[7, 1000, 1200, 2]]
    assert state.neighbors[7].min_gap_ms == 200
    assert len(state.neighbors) == 1


def scenario_early_detection_no_mutation():
    """A permanently blocked sender is rejected before any table touch."""
    state = fresh_state(node_max=4)
    process_dio(state, 3, 500)
    state.blacklist[3] = 5

    before = snapshot(state)
    v = process_dio(state, 3, 900)
    assert v.verdict is Verdict.DISCARD_BLOCKED
    assert v.newly_suspected == [] and v.newly_blocked == []
    assert snapshot(state) == before

    # merely suspected senders are still accepted and tracked
    state.blacklist[3] = 2
    v = process_dio(state, 3, 900)
    assert v.verdict is Verdict.ACCEPT
    assert snapshot(state)["neighbors"] == [[3, 500, 900, 2]]


def scenario_table_overflow():
    """A full neighbor table drops tracking for new senders, with a count."""
    state = fresh_state(node_max=2)
    assert not process_dio(state, 11, 100).overflow
    assert not process_dio(state, 22, 200).overflow
    v = process_dio(state, 33, 300)
    assert v.verdict is Verdict.ACCEPT and v.overflow
    assert snapshot(state) == {
        "neighbors": [[11, 0, 100, 1], [22, 0, 200, 1]],
        "blacklist": [],
        "active": False,
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
    assert check_malicious(state, 200_000) == ([], [])
    assert snapshot(state)["blacklist"] == []


def scenario_check_empty_and_single():
    """Empty table is a no-op; a lone neighbor can never exceed its fence."""
    state = fresh_state(node_max=4)
    assert check_malicious(state, 1000) == ([], [])

    for k in range(500):
        process_dio(state, 6, 1000 + k * 100)
    assert check_malicious(state, 60_000) == ([], [])
    assert state.blacklist == {}


def scenario_gap_guard():
    """Outlier count alone is not enough: the inter-DIO gap must be small."""

    def build(last_gap):
        state = fresh_state(node_max=8)
        _populate(state, FLAT_COUNTS)
        t = 1_000_000
        for k in range(50):
            process_dio(state, 9, t + k * 5000)
        process_dio(state, 9, t + 49 * 5000 + last_gap)
        return state

    # counts [3,4,5,3,4,51]: q1 3, q3 5, iqr 2, fence 7 -> 51 exceeds
    slow = build(4501)
    assert check_malicious(slow, 2_000_000) == ([], [])

    fast = build(4500)
    assert check_malicious(fast, 2_000_000) == ([9], [])
    assert snapshot(fast)["blacklist"] == [[9, 1, False]]


def scenario_min_gap_refinement():
    """min_gap_mode compares the windowed minimum gap to the raw interval."""

    def build(min_gap, **cfg):
        state = fresh_state(node_max=8, **cfg)
        _populate(state, FLAT_COUNTS)
        t = 1_000_000
        for k in range(50):
            process_dio(state, 9, t + k * 5000)
        # one tight pair mid-stream, then a big trailing gap
        process_dio(state, 9, t + 49 * 5000 + min_gap)
        process_dio(state, 9, t + 49 * 5000 + min_gap + 50_000)
        return state

    hit = build(500, min_gap_mode=True)
    assert check_malicious(hit, 2_000_000) == ([9], [])
    miss = build(501, min_gap_mode=True)
    assert check_malicious(miss, 2_000_000) == ([], [])

    # the windowed minimum resets after every check, so a silent-but-still-
    # outlying neighbor has no gap evidence at the next check
    assert hit.neighbors[9].min_gap_ms is None
    assert check_malicious(hit, 2_100_000) == ([], [])

    # literal 500 ms reproduction mode: margin collapsed to the raw sigma
    lit = build(500, sigma_margin_ms=0)
    assert lit.config.gap_threshold_ms == 500
    assert check_malicious(lit, 2_000_000) == ([], [])  # last gap is 50 s


def scenario_escalation_to_block():
    """Detections accumulate across checks until the permanent block."""
    cfg_max = 8
    state = fresh_state(node_max=cfg_max)
    _populate(state, ATTACK_COUNTS)
    attacker = 9
    t = 1_000_000
    for k in range(166):
        process_dio(state, attacker, t + k * 200)
    t += 166 * 200

    block_at = state.config.block_threshold
    for round_no in range(1, block_at + 1):
        tick(state, max(t, state.config.activation_delay_ms))
        assert state.active
        v = process_dio(state, attacker, t + 200)
        t += 40_000  # beyond one check period before the next round
        if round_no < block_at:
            assert v.newly_suspected == [attacker] and v.newly_blocked == []
            assert snapshot(state)["blacklist"] == [[attacker, round_no, False]]
            # re-prime a small gap for the next round's trigger reception
            process_dio(state, attacker, t)
        else:
            assert v.newly_suspected == [] and v.newly_blocked == [attacker]

    assert snapshot(state) == {
        "neighbors": [
            [i + 1, 1000 * (i + 1) + (c - 2) * 10_000, 1000 * (i + 1) + (c - 1) * 10_000, c]
            if c > 1
            else [i + 1, 0, 1000 * (i + 1), 1]
            for i, c in enumerate(ATTACK_COUNTS)
        ],
        "blacklist": [[attacker, block_at, True]],
        "active": False,
        "overflow_count": 0,
    }

    # monotone blocking from now on
    for dt in (1, 2, 3):
        assert process_dio(state, attacker, t + dt).verdict is Verdict.DISCARD_BLOCKED
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
    assert check_malicious(state, 2000) == ([], [])
    assert snapshot(state)["blacklist"] == [[9, 5, True]]


def scenario_blacklist_overflow():
    """A full blacklist cannot take new suspects; the event is counted."""
    state = fresh_state(node_max=6)
    _populate(state, FLAT_COUNTS)
    t = 1_000_000
    for k in range(51):
        process_dio(state, 9, t + k * 200)
    state.blacklist = {100 + i: 1 for i in range(6)}

    assert check_malicious(state, 2_000_000) == ([], [])
    assert state.overflow_count == 1
    assert len(state.blacklist) == 6


def scenario_remove_entry():
    """Blocking a sender frees its place in a full neighbor table."""
    # six is the smallest table whose top count can clear a delta-1 fence
    state = fresh_state(node_max=6, block_threshold=2)
    _populate(state, FLAT_COUNTS)
    attacker, newcomer = 9, 10
    t = 1_000_000
    for k in range(51):
        process_dio(state, attacker, t + k * 200)
    t += 50 * 200
    assert process_dio(state, newcomer, t + 50).overflow  # full: not tracked

    assert check_malicious(state, t + 100) == ([attacker], [])
    process_dio(state, attacker, t + 200)
    assert check_malicious(state, t + 200) == ([], [attacker])
    assert sorted(state.neighbors) == [1, 2, 3, 4, 5]
    assert snapshot(state)["blacklist"] == [[attacker, 2, True]]

    v = process_dio(state, newcomer, t + 300)
    assert v.verdict is Verdict.ACCEPT and not v.overflow
    assert snapshot(state)["neighbors"][-1] == [newcomer, 0, t + 300, 1]
    assert state.overflow_count == 1


def scenario_tick_gating():
    """The check flag arms at activation and then once per period."""
    state = fresh_state()
    tick(state, 119_999)
    assert not state.active
    tick(state, 120_000)
    assert state.active

    state.active = False  # consumed by a reception
    tick(state, 121_000)
    assert not state.active
    tick(state, 149_999)
    assert not state.active
    tick(state, 150_000)
    assert state.active


def scenario_config_validation():
    """Every config bound is enforced, and the gap threshold composes."""
    for bad in (
        dict(safe_interval_ms=0),
        dict(block_threshold=0),
        dict(block_threshold=1),
        dict(fence_delta=0.0),
        dict(node_max=0),
    ):
        try:
            IdsConfig(**bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected rejection of {bad}")
    assert IdsConfig().gap_threshold_ms == 4500
    assert IdsConfig(sigma_margin_ms=100).gap_threshold_ms == 500
    assert IdsConfig(min_gap_mode=True, sigma_margin_ms=9000).gap_threshold_ms == 500


SCENARIOS = [
    scenario_config_validation,
    scenario_insert_update,
    scenario_early_detection_no_mutation,
    scenario_table_overflow,
    scenario_check_clean_sample,
    scenario_check_empty_and_single,
    scenario_gap_guard,
    scenario_min_gap_refinement,
    scenario_escalation_to_block,
    scenario_blocked_record_guard,
    scenario_blacklist_overflow,
    scenario_remove_entry,
    scenario_tick_gating,
]


def run_all():
    for fn in SCENARIOS:
        fn()
