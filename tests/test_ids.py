"""Tests for the detection engine state machine."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rplsim.ids import (
    IdsConfig,
    IdsState,
    Verdict,
    check_malicious,
    process_dio,
    snapshot,
    tick,
)
from tests import ids_conformance


@pytest.mark.parametrize(
    "scenario", ids_conformance.SCENARIOS, ids=lambda fn: fn.__name__
)
def test_scenario(scenario):
    scenario()


def test_config_validation():
    with pytest.raises(ValueError, match="safe_interval_ms"):
        IdsConfig(safe_interval_ms=0)
    with pytest.raises(ValueError, match="block_threshold"):
        IdsConfig(block_threshold=0)
    # the first detection only suspects, so a block takes at least two
    with pytest.raises(ValueError, match="block_threshold must be >= 2"):
        IdsConfig(block_threshold=1)
    with pytest.raises(ValueError, match="fence_delta"):
        IdsConfig(fence_delta=0)
    with pytest.raises(ValueError, match="node_max"):
        IdsConfig(node_max=0)


def test_gap_threshold_defaults():
    assert IdsConfig().gap_threshold_ms == 4500
    assert IdsConfig(sigma_margin_ms=0).gap_threshold_ms == 500
    assert IdsConfig(min_gap_mode=True).gap_threshold_ms == 500


# Event alphabet for random traces: (sender, gap to previous event, arm?).
trace_events = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=40_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


def run_trace(events, cfg=None):
    state = IdsState(cfg or IdsConfig(node_max=12))
    now = 0
    outcomes = []
    for sender, gap, arm in events:
        now += gap
        if arm:
            tick(state, now)
        outcomes.append(process_dio(state, sender, now))
    return state, outcomes


class TestInvariants:
    @given(trace_events)
    @settings(max_examples=150, deadline=None)
    def test_structural_invariants(self, events):
        state, _ = run_trace(events)
        cfg = state.config
        assert len(state.neighbors) <= cfg.node_max
        for addr, entry in state.neighbors.items():
            assert entry.t_previous <= entry.t_recent
            assert entry.dio_count >= 1
            assert not state.is_blocked(addr)  # a block drops the neighbor entry
        assert len(state.blacklist) <= cfg.node_max
        for count in state.blacklist.values():
            assert 1 <= count <= cfg.block_threshold

    @given(trace_events)
    @settings(max_examples=100, deadline=None)
    def test_replay_determinism(self, events):
        state_a, out_a = run_trace(events)
        state_b, out_b = run_trace(events)
        assert out_a == out_b
        assert state_a == state_b

    @given(trace_events)
    @settings(max_examples=100, deadline=None)
    def test_blocked_senders_stay_blocked(self, events):
        state, _ = run_trace(events)
        blocked = [addr for addr in state.blacklist if state.is_blocked(addr)]
        for addr in blocked:
            before = copy.deepcopy(state)
            verdict = process_dio(state, addr, 10_000_000)
            assert verdict.verdict is Verdict.DISCARD_BLOCKED
            assert state == before

    @given(trace_events)
    @settings(max_examples=100, deadline=None)
    def test_suspicion_requires_both_conditions(self, events):
        """Every suspicion implies fence exceedance and a small gap."""
        state = IdsState(IdsConfig(node_max=12))
        now = 0
        for sender, gap, arm in events:
            now += gap
            if arm:
                tick(state, now)
            pre = copy.deepcopy(state)
            verdict = process_dio(state, sender, now)
            for addr in verdict.newly_suspected + verdict.newly_blocked:
                # evaluate the conditions on the table as the check saw it
                probe = copy.deepcopy(pre)
                process_dio_no_check(probe, sender, now)
                counts = [e.dio_count for e in probe.neighbors.values()]
                from rplsim.outliers import compute_quartiles

                fence = compute_quartiles(counts, probe.config.fence_delta).upper_limit
                entry = probe.neighbors[addr]
                assert entry.dio_count > fence
                assert (
                    entry.t_recent - entry.t_previous
                    <= probe.config.gap_threshold_ms
                )


def process_dio_no_check(state, sender, now):
    """Reception bookkeeping without the embedded malicious-check."""
    state.active = False
    return process_dio(state, sender, now)


def test_single_neighbor_never_flagged():
    state = IdsState(IdsConfig(node_max=4))
    for k in range(1000):
        process_dio(state, 5, 200_000 + k * 100)
    tick(state, 400_000)
    verdict = process_dio(state, 5, 400_001)
    assert verdict.newly_suspected == [] and verdict.newly_blocked == []
    assert state.blacklist == {}


def test_check_consumes_active_flag():
    state = IdsState(IdsConfig(node_max=4))
    process_dio(state, 1, 1000)
    tick(state, 130_000)
    assert state.active
    process_dio(state, 1, 130_100)
    assert not state.active


def test_suspected_exactly_beta_times_before_block():
    """beta - 1 repeat suspicions after the first, then the block."""
    cfg = IdsConfig(node_max=8, block_threshold=3)
    state = IdsState(cfg)
    for i, count in enumerate([3, 4, 5, 3, 4]):
        for k in range(count):
            process_dio(state, i + 1, 1000 * (i + 1) + k * 10_000)
    suspect_events = 0
    block_events = 0
    now = 1_000_000
    for k in range(60):
        process_dio(state, 9, now + k * 200)
    now += 60 * 200
    for _ in range(cfg.block_threshold):
        tick(state, now)
        verdict = process_dio(state, 9, now + 200)
        suspect_events += len(verdict.newly_suspected)
        block_events += len(verdict.newly_blocked)
        now += cfg.check_period_ms + 1000
        if not block_events:
            process_dio(state, 9, now)  # keep the trigger gap small
    assert suspect_events == cfg.block_threshold - 1
    assert block_events == 1
