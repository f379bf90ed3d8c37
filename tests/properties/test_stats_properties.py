"""Property-based tests for the statistical-rigor core.

The ISSUE guarantees every new stats routine rides on Hypothesis
properties rather than hand-picked examples:

* the bootstrap confidence interval always contains the sample mean
  (the interval is explicitly widened to include the point estimate);
* bootstrap/permutation results are pure functions of (data, seed);
* ``summarize`` is equivariant under positive scaling;
* ``detect_modes`` is stable under permutation of the input, keeps a
  sample within 5% jitter as one mode, and splits two such clusters
  whose centres differ by 2x or more;
* p-values live in (0, 1], comparisons are label-symmetric, and
  identical samples never read as significantly different.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from repro.core.stats import (
    bootstrap_ci,
    compare_replicates,
    detect_modes,
    mann_whitney,
    permutation_test,
    stable_seed,
    summarize,
    summarize_replicates,
)

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
series = st.lists(finite, min_size=1, max_size=24)
pair = st.tuples(
    st.lists(finite, min_size=1, max_size=12),
    st.lists(finite, min_size=1, max_size=12),
)
seeds = st.integers(min_value=0, max_value=2**32)


class TestBootstrapCi:
    @settings(max_examples=40, deadline=None)
    @given(series, seeds)
    def test_interval_contains_sample_mean(self, values, seed):
        mean = summarize(values).mean
        low, high = bootstrap_ci(values, resamples=199, seed=seed)
        assert low <= mean <= high

    @settings(max_examples=40, deadline=None)
    @given(series, seeds)
    def test_seed_determinism(self, values, seed):
        first = bootstrap_ci(values, resamples=199, seed=seed)
        second = bootstrap_ci(values, resamples=199, seed=seed)
        assert first == second

    @settings(max_examples=20, deadline=None)
    @given(st.lists(finite, min_size=5, max_size=24, unique=True), seeds)
    def test_interval_is_ordered_and_bounded_by_data(self, values, seed):
        low, high = bootstrap_ci(values, resamples=199, seed=seed)
        assert low <= high
        # Tolerance of a few ulps: resample means are computed in
        # floating point and can graze past the data extremes.
        slack = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - slack <= low
        assert high <= max(values) + slack


def exact_std(values):
    """The sample standard deviation of *values*, computed exactly."""
    if len(values) < 2:
        return 0.0
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return math.sqrt(sum((v - mean) ** 2 for v in exact) / (len(exact) - 1))


class TestSummarizeEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(series, positive)
    @example(values=[999995952.0, 999995883.9999999], factor=18.0)
    def test_scaling_scales_location_and_spread(self, values, factor):
        base = summarize(values)
        scaled_values = [v * factor for v in values]
        scaled = summarize(scaled_values)
        assert scaled.mean == pytest.approx(base.mean * factor, rel=1e-9, abs=1e-6)
        # Rounding each v * factor can move a narrow spread by more than
        # 1e-9 of itself (the example: 1.4e-9), so the scaled spread is
        # checked against the exact spread of what was summarized, and
        # against base.std * factor only where scaling is exact.
        assert scaled.std == pytest.approx(
            exact_std(scaled_values), rel=1e-9, abs=1e-6
        )
        if math.frexp(factor)[0] == 0.5:  # a power of two
            assert scaled.std == pytest.approx(
                base.std * factor, rel=1e-9, abs=1e-6
            )
        assert scaled.median == pytest.approx(
            base.median * factor, rel=1e-9, abs=1e-6
        )
        assert scaled.minimum == pytest.approx(
            base.minimum * factor, rel=1e-9, abs=1e-6
        )
        assert scaled.maximum == pytest.approx(
            base.maximum * factor, rel=1e-9, abs=1e-6
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(positive, min_size=2, max_size=24), positive)
    def test_cv_is_scale_invariant(self, values, factor):
        base = summarize(values)
        scaled = summarize([v * factor for v in values])
        assert scaled.cv == pytest.approx(base.cv, rel=1e-6, abs=1e-9)


class TestDetectModesStability:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=24), seeds)
    def test_permutation_invariance(self, values, seed):
        import random

        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        original = [(m.center, m.count) for m in detect_modes(values)]
        permuted = [(m.center, m.count) for m in detect_modes(shuffled)]
        assert sorted(original) == sorted(permuted)


#: One cluster: a positive base and each member's offset above it, at
#: most 5% (the spread of scheduler jitter).
cluster = st.tuples(
    positive,
    st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=1, max_size=24),
)


def _members(base, offsets):
    return [base * (1.0 + offset) for offset in offsets]


class TestDetectModesSeparation:
    @settings(max_examples=40, deadline=None)
    @given(cluster)
    def test_a_sample_within_jitter_is_one_mode(self, spec):
        values = _members(*spec)
        assume(max(values) <= 1.05 * min(values))
        assert [m.count for m in detect_modes(values)] == [len(values)]

    @settings(max_examples=40, deadline=None)
    @given(cluster, cluster, st.floats(min_value=2.1, max_value=100.0))
    def test_clusters_twice_apart_are_two_modes(self, low, high, ratio):
        slow = _members(*low)
        fast = _members(low[0] * ratio, high[1])
        for values in (slow, fast):
            assume(max(values) <= 1.05 * min(values))
        assume(sum(fast) / len(fast) >= 2.0 * sum(slow) / len(slow))
        modes = detect_modes(slow + fast)
        assert [m.count for m in modes] == [len(fast), len(slow)]


class TestSignificanceTests:
    @settings(max_examples=40, deadline=None)
    @given(pair)
    def test_p_values_in_unit_interval(self, samples):
        a, b = samples
        assert 0.0 < mann_whitney(a, b).p_value <= 1.0
        assert 0.0 < permutation_test(a, b, resamples=99).p_value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(pair, seeds)
    def test_permutation_seed_determinism(self, samples, seed):
        a, b = samples
        first = permutation_test(a, b, resamples=99, seed=seed)
        second = permutation_test(a, b, resamples=99, seed=seed)
        assert first == second

    @settings(max_examples=40, deadline=None)
    @given(pair)
    def test_mann_whitney_is_label_symmetric(self, samples):
        a, b = samples
        assert mann_whitney(a, b).p_value == pytest.approx(
            mann_whitney(b, a).p_value, rel=1e-12, abs=1e-15
        )

    @settings(max_examples=40, deadline=None)
    @given(series)
    def test_identical_samples_never_differ_significantly(self, values):
        comparison = compare_replicates(values, list(values), resamples=99)
        assert not comparison.significant
        assert comparison.mann_whitney_p == pytest.approx(1.0)


class TestReplicateSummary:
    @settings(max_examples=40, deadline=None)
    @given(series, seeds)
    def test_summary_roundtrips_through_dict(self, values, seed):
        summary = summarize_replicates(values, seed=seed, resamples=99)
        rebuilt = type(summary).from_dict(summary.to_dict())
        assert rebuilt == summary

    @settings(max_examples=40, deadline=None)
    @given(series, seeds)
    def test_summary_brackets_mean_and_orders_extremes(self, values, seed):
        summary = summarize_replicates(values, seed=seed, resamples=99)
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.count == len(values)


class TestStableSeed:
    @settings(max_examples=40, deadline=None)
    @given(st.text(max_size=20), st.integers(), st.integers())
    def test_distinct_parts_rarely_collide_and_repeat_exactly(
        self, label, x, y
    ):
        assume(x != y)
        assert stable_seed(label, x) == stable_seed(label, x)
        assert stable_seed(label, x) != stable_seed(label, y)
        assert 0 <= stable_seed(label, x) < 2**63


def test_detect_modes_uses_math_isclose_free_centers():
    # Regression guard: two clearly-separated clusters stay two modes
    # regardless of input order (the property above, pinned on the
    # Figure-5 shape).
    fast = [2.4, 2.41, 2.39, 2.4]
    slow = [1.1, 1.12, 1.09]
    modes = detect_modes(fast + slow)
    assert len(modes) == 2
    assert not math.isclose(modes[0].center, modes[1].center)
