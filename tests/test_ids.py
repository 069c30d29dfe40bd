"""Tests for the detection engine state machine."""

from __future__ import annotations

import ast
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rplsim import ids
from rplsim.ids import (
    IdsConfig,
    IdsState,
    check_malicious,
    process_dio,
)
from tests import ids_conformance
from tests.ids_conformance import is_blocked


@pytest.mark.parametrize(
    "scenario", ids_conformance.SCENARIOS, ids=lambda fn: fn.__name__
)
def test_scenario(scenario):
    scenario()


def test_config_validation():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^gap_threshold_ms must be >= 1$"):
            IdsConfig(gap_threshold_ms=bad)
    with pytest.raises(ValueError, match="block_threshold"):
        IdsConfig(block_threshold=0)
    # the first detection only suspects, so a block takes at least two
    with pytest.raises(ValueError, match="block_threshold must be >= 2"):
        IdsConfig(block_threshold=1)
    with pytest.raises(ValueError, match="fence_delta"):
        IdsConfig(fence_delta=0)
    with pytest.raises(ValueError, match="node_max"):
        IdsConfig(node_max=0)
    with pytest.raises(ValueError, match="^activation_delay_ms must be >= 0$"):
        IdsConfig(activation_delay_ms=-5)
    for bad in (0, -30_000):
        with pytest.raises(ValueError, match="^check_period_ms must be >= 1$"):
            IdsConfig(check_period_ms=bad)
    # the boundaries themselves are accepted
    IdsConfig(activation_delay_ms=0, check_period_ms=1)


def test_gap_threshold_defaults():
    assert IdsConfig().gap_threshold_ms == 4500


# Event alphabet for random traces: (sender, gap to previous event, check due?).
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
    for sender, gap, due in events:
        now += gap
        if due:
            state.next_check_ms = now
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
            assert not is_blocked(state, addr)  # a block drops the neighbor entry
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
        blocked = [addr for addr in state.blacklist if is_blocked(state, addr)]
        for addr in blocked:
            before = copy.deepcopy(state)
            assert process_dio(state, addr, 10_000_000) is None
            assert state == before

    @given(trace_events)
    @settings(max_examples=100, deadline=None)
    def test_suspicion_requires_both_conditions(self, events):
        """Every suspicion implies fence exceedance and a small gap."""
        state = IdsState(IdsConfig(node_max=12))
        now = 0
        for sender, gap, due in events:
            now += gap
            if due:
                state.next_check_ms = now
            pre = copy.deepcopy(state)
            # twelve places for nine senders: every event suspects or blocks
            for _kind, addr in process_dio(state, sender, now) or ():
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

    @given(trace_events)
    @settings(max_examples=100, deadline=None)
    def test_events_come_in_trace_order(self, events):
        """None, or (kind, subject) pairs: suspects, then blocks, then the overflow."""
        order = {"ids_suspect": 0, "ids_block": 1, "ids_overflow": 2}
        _, outcomes = run_trace(events, IdsConfig(node_max=4))
        for (sender, _, _), raised in zip(events, outcomes):
            if raised is None:
                continue
            assert isinstance(raised, tuple)
            ranks = [order[kind] for kind, _ in raised]
            assert ranks == sorted(ranks)
            assert [s for kind, s in raised if kind == "ids_overflow"] in ([], [sender])


def process_dio_no_check(state, sender, now):
    """Reception bookkeeping without the embedded malicious-check."""
    state.next_check_ms = now + 1
    return process_dio(state, sender, now)


def test_single_neighbor_never_flagged():
    state = IdsState(IdsConfig(node_max=4))
    for k in range(1000):
        process_dio(state, 5, 200_000 + k * 100)
    state.next_check_ms = 400_000
    assert process_dio(state, 5, 400_001) == ()
    assert state.blacklist == {}


def test_check_moves_next_check_onto_grid():
    state = IdsState(IdsConfig(node_max=4))
    process_dio(state, 1, 1000)
    assert state.next_check_ms == 120_000
    process_dio(state, 1, 130_100)
    assert state.next_check_ms == 150_000


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
        state.next_check_ms = now
        events = process_dio(state, 9, now + 200)
        suspect_events += events.count(("ids_suspect", 9))
        block_events += events.count(("ids_block", 9))
        now += cfg.check_period_ms + 1000
        if not block_events:
            process_dio(state, 9, now)  # keep the trigger gap small
    assert suspect_events == cfg.block_threshold - 1
    assert block_events == 1


def test_ids_imports_only_outliers_from_the_package():
    """The detector stays embeddable: it names trace kinds but imports no trace or engine."""
    with open(ids.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                assert (node.level, node.module) == (1, "outliers"), ast.unparse(node)
                continue
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert all(name.split(".")[0] != "rplsim" for name in names), ast.unparse(node)
