"""Tests for the quartiles and the upper fence the detector applies."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rplsim.ids import IdsConfig, IdsState, NeighborEntry, check_malicious
from rplsim.outliers import compute_quartiles


def oracle_quartiles(values, delta):
    """Brute-force reference: sort, split halves, take half medians.

    Kept deliberately independent of the implementation under test.
    """
    data = sorted(values)
    n = len(data)
    med = statistics.median(data)
    half = n // 2
    if half == 0:
        q1 = q3 = med
    else:
        q1 = statistics.median(data[:half])
        q3 = statistics.median(data[-half:])
    iqr = q3 - q1
    return med, q1, q3, iqr, q3 + delta * iqr


def detector_outliers(counted, delta=1.0):
    """The senders ``ids.check_malicious`` suspects among (address, DIO count) pairs.

    Every sender's last gap is 1 ms, well inside the gap threshold, and both
    tables hold the whole sample, so only the upper fence decides.
    """
    counted = list(counted)
    state = IdsState(IdsConfig(fence_delta=delta, node_max=max(1, len(counted))))
    for addr, count in counted:
        state.neighbors[addr] = NeighborEntry(t_previous=0, t_recent=1, dio_count=count)
    suspected, _ = check_malicious(state)
    return set(suspected)


# One row per worked column: sample, median, q1, q3, iqr, upper fence with
# delta = 1, and whether the largest value is flagged.  The 20-minute
# no-attack column's median is 5.5 by arithmetic (its printed source rounds
# it); every other figure matches the source table exactly.
WORKED_COLUMNS = [
    ([9, 1, 3, 6, 5, 1], 4, 1, 6, 5, 11, False),
    ([10, 1, 7, 8, 7, 1, 2], 7, 1, 8, 7, 15, False),
    ([10, 1, 9, 9, 7, 1, 3, 1], 5, 1, 9, 8, 17, False),
    ([12, 1, 9, 10, 8, 2, 3, 1], 5.5, 1.5, 9.5, 8, 17.5, False),
    ([13, 1, 11, 10, 9, 2, 4, 1], 6.5, 1.5, 10.5, 9, 19.5, False),
    ([13, 1, 12, 10, 9, 3, 5, 1], 7, 2, 11, 9, 20, False),
    ([7, 8, 6, 1, 4, 2, 166], 6, 2, 8, 6, 14, True),
    ([7, 9, 9, 1, 4, 2, 398], 7, 2, 9, 7, 16, True),
    ([9, 6, 2, 9, 7, 711, 3, 1], 6.5, 2.5, 9, 6.5, 15.5, True),
    ([10, 7, 2, 9, 8, 980, 4, 1], 7.5, 3, 9.5, 6.5, 16, True),
    ([12, 12, 3, 11, 9, 1246, 4, 2], 10, 3.5, 12, 8.5, 20.5, True),
    ([12, 13, 3, 11, 9, 1520, 5, 2], 10, 4, 12.5, 8.5, 21, True),
]


class TestComputeQuartiles:
    @pytest.mark.parametrize("sample,med,q1,q3,iqr,upper,_", WORKED_COLUMNS)
    def test_worked_columns_exact(self, sample, med, q1, q3, iqr, upper, _):
        s = compute_quartiles(sample, delta=1.0)
        assert s.median == med
        assert s.q1 == q1
        assert s.q3 == q3
        assert s.iqr == iqr
        assert s.upper_limit == upper

    def test_single_element(self):
        s = compute_quartiles([7], delta=2.5)
        assert s.median == s.q1 == s.q3 == 7
        assert s.iqr == 0
        assert s.upper_limit == 7

    def test_classic_delta(self):
        s = compute_quartiles([1, 2, 3, 4, 5, 6, 7, 8], delta=1.5)
        assert s.q1 == 2.5
        assert s.q3 == 6.5
        assert s.upper_limit == 6.5 + 1.5 * 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            compute_quartiles([], delta=1.0)

    def test_random_samples_match_oracle(self):
        rng = random.Random(20260808)
        for _ in range(200):
            n = rng.randint(1, 40)
            sample = [rng.randint(0, 500) for _ in range(n)]
            s = compute_quartiles(sample, delta=1.0)
            med, q1, q3, iqr, upper = oracle_quartiles(sample, 1.0)
            assert (s.median, s.q1, s.q3, s.iqr, s.upper_limit) == (
                med,
                q1,
                q3,
                iqr,
                upper,
            )


class TestFindOutliers:
    """Which senders the detector's own fence flags."""

    @pytest.mark.parametrize("sample,_m,_q1,_q3,_i,_u,flagged", WORKED_COLUMNS)
    def test_worked_columns_verdict(self, sample, _m, _q1, _q3, _i, _u, flagged):
        keyed = list(enumerate(sample))
        outliers = detector_outliers(keyed, delta=1.0)
        if flagged:
            assert outliers == {sample.index(max(sample))}
        else:
            assert outliers == set()

    def test_empty_is_noop(self):
        assert detector_outliers([], delta=1.0) == set()

    def test_all_equal_none_flagged(self):
        assert detector_outliers([(1, 5), (2, 5), (3, 5)], delta=1.0) == set()


counts = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60)


class TestProperties:
    @given(counts, st.integers(0, 2**32))
    @settings(max_examples=250)
    def test_permutation_invariance(self, sample, seed):
        shuffled = sample[:]
        random.Random(seed).shuffle(shuffled)
        assert compute_quartiles(sample, 1.0) == compute_quartiles(shuffled, 1.0)
        keyed_a = list(enumerate(sample))
        keyed_b = sorted(enumerate(sample), key=lambda kv: (kv[1], kv[0]))
        assert detector_outliers(keyed_a, 1.0) == detector_outliers(keyed_b, 1.0)

    @given(counts, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=250)
    def test_translation_shifts_summary(self, sample, k):
        base = compute_quartiles(sample, 1.0)
        moved = compute_quartiles([v + k for v in sample], 1.0)
        assert moved.median == base.median + k
        assert moved.q1 == base.q1 + k
        assert moved.q3 == base.q3 + k
        assert moved.iqr == base.iqr
        assert moved.upper_limit == base.upper_limit + k
        assert detector_outliers(enumerate(sample), 1.0) == detector_outliers(
            [(i, v + k) for i, v in enumerate(sample)], 1.0
        )

    @given(counts)
    @settings(max_examples=250)
    def test_never_all_outliers(self, sample):
        outliers = detector_outliers(enumerate(sample), 1.0)
        assert len(outliers) < len(sample)

    @given(counts)
    @settings(max_examples=250)
    def test_matches_oracle(self, sample):
        s = compute_quartiles(sample, 1.0)
        assert (s.median, s.q1, s.q3, s.iqr, s.upper_limit) == oracle_quartiles(
            sample, 1.0
        )
