"""Tests for repro.core.stats, including property-based mode detection."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.stats import (
    bootstrap_ci,
    compare_replicates,
    detect_modes,
    exponential_fit,
    geometric_mean,
    is_bimodal,
    linear_fit,
    mann_whitney,
    permutation_test,
    summarize,
    summarize_replicates,
)
from repro.errors import ConfigurationError


class TestSummarize:
    def test_basic_summary(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == 2.5

    def test_odd_median(self):
        assert summarize([3.0, 1.0, 2.0]).median == 2.0

    def test_single_value_has_zero_std(self):
        stats = summarize([5.0])
        assert stats.std == 0.0
        assert stats.cv == 0.0

    def test_constant_sample_has_exactly_zero_std(self):
        # Three copies of a float whose triple is not representable:
        # sum/n rounds away from the common value, and the naive
        # two-pass formula reported a spurious nonzero spread.
        value = 492588087.0 * 761894.125
        stats = summarize([value, value, value])
        assert stats.std == 0.0
        assert stats.cv == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_cv_of_zero_mean(self):
        assert summarize([-1.0, 1.0]).cv == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_min_le_median_le_max(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.median <= stats.maximum


class TestDetectModes:
    def test_single_cluster_is_one_mode(self):
        modes = detect_modes([1.0, 1.01, 0.99, 1.02])
        assert len(modes) == 1
        assert modes[0].count == 4

    def test_two_well_separated_modes(self):
        """The Figure 5a pattern: nominal mode + degraded mode ~5x lower."""
        nominal = [1.0 + 0.01 * i for i in range(20)]
        degraded = [0.21 + 0.002 * i for i in range(10)]
        modes = detect_modes(nominal + degraded)
        assert len(modes) == 2
        assert modes[0].center > modes[1].center  # sorted descending
        assert modes[0].count == 20
        assert modes[1].count == 10

    def test_identical_values_single_degenerate_mode(self):
        modes = detect_modes([2.0] * 7)
        assert len(modes) == 1
        assert modes[0].center == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_modes([])

    def test_bad_separation_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_modes([1.0, 2.0], separation=0)

    @given(
        st.lists(st.floats(0.9, 1.1), min_size=3, max_size=30),
        st.lists(st.floats(4.9, 5.1), min_size=3, max_size=30),
    )
    def test_property_two_separated_clusters_found(self, low, high):
        modes = detect_modes(low + high)
        assert len(modes) == 2
        assert modes[0].count == len(high)
        assert modes[1].count == len(low)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    def test_property_members_partition_the_sample(self, values):
        modes = detect_modes(values)
        recovered = sorted(v for m in modes for v in m.members)
        assert recovered == sorted(values)


class TestIsBimodal:
    def test_unimodal_sample(self):
        assert not is_bimodal([1.0, 1.05, 0.95, 1.02, 0.98])

    def test_bimodal_with_5x_gap(self):
        sample = [1.0, 1.02, 0.98, 1.01] * 5 + [0.21, 0.2, 0.22, 0.19]
        assert is_bimodal(sample, ratio=2.0)

    def test_singleton_outlier_not_a_mode(self):
        assert not is_bimodal([1.0, 1.01, 0.99, 1.02, 0.2])


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_fit([0, 1], [0, 2])
        assert fit.predict(10) == pytest.approx(20.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_fit([1, 2], [1])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_fit([1, 1], [1, 2])


class TestExponentialFit:
    def test_exact_exponential(self):
        xs = [2000, 2001, 2002, 2003]
        ys = [100.0 * 1.9 ** (x - 2000) for x in xs]
        fit = exponential_fit(xs, ys)
        assert fit.growth == pytest.approx(1.9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_solve_for_inverts_predict(self):
        xs = [0, 1, 2, 3, 4]
        ys = [2.0**x for x in xs]
        fit = exponential_fit(xs, ys)
        assert fit.solve_for(fit.predict(7.5)) == pytest.approx(7.5)

    def test_nonpositive_y_rejected(self):
        with pytest.raises(ConfigurationError):
            exponential_fit([0, 1], [1.0, 0.0])

    @given(
        st.floats(1.1, 3.0),
        st.floats(1.0, 1000.0),
    )
    def test_property_recovers_growth(self, growth, scale):
        xs = list(range(8))
        ys = [scale * growth**x for x in xs]
        fit = exponential_fit(xs, ys)
        assert math.isclose(fit.growth, growth, rel_tol=1e-6)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([])


class TestEdgeCaseContract:
    """n = 0, n = 1 and constant series: raise vs. degenerate interval
    is an explicit, pinned contract — not an accident of the math."""

    def test_n0_always_raises(self):
        for fn in (summarize, geometric_mean, bootstrap_ci,
                   summarize_replicates):
            with pytest.raises(ConfigurationError):
                fn([])

    def test_n1_summarize_is_degenerate_not_an_error(self):
        stats = summarize([42.0])
        assert stats.count == 1
        assert stats.mean == stats.median == stats.minimum == stats.maximum == 42.0
        assert stats.std == 0.0 and stats.cv == 0.0

    def test_n1_bootstrap_ci_collapses_to_the_value(self):
        assert bootstrap_ci([42.0], resamples=99) == (42.0, 42.0)

    def test_n1_geometric_mean_is_the_value(self):
        assert geometric_mean([42.0]) == pytest.approx(42.0)

    def test_constant_series_yield_degenerate_intervals(self):
        data = [3.5] * 7
        assert bootstrap_ci(data, resamples=99) == (3.5, 3.5)
        summary = summarize_replicates(data, resamples=99)
        assert summary.ci_low == summary.ci_high == 3.5
        assert summary.cv == 0.0 and not summary.bimodal

    def test_n1_replicate_summary_is_explicitly_degenerate(self):
        summary = summarize_replicates([3.25], resamples=99)
        assert summary.count == 1
        assert (summary.ci_low, summary.ci_high) == (3.25, 3.25)
        assert summary.std == 0.0 and summary.values == (3.25,)

    def test_significance_tests_reject_empty_samples(self):
        with pytest.raises(ConfigurationError):
            mann_whitney([], [1.0])
        with pytest.raises(ConfigurationError):
            permutation_test([1.0], [])

    def test_single_runs_can_never_differ_significantly(self):
        """The paper's §V-A-1 point as an API guarantee: one run per
        side cannot reject the null, whatever the gap."""
        comparison = compare_replicates([1.0], [1000.0], resamples=99)
        assert not comparison.significant

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)
        with pytest.raises(ConfigurationError):
            bootstrap_ci([1.0, 2.0], resamples=0)
        with pytest.raises(ConfigurationError):
            permutation_test([1.0], [2.0], resamples=0)
        with pytest.raises(ConfigurationError):
            compare_replicates([1.0], [2.0], alpha=0.0)


class TestSignificanceBehavior:
    def test_clearly_separated_samples_differ(self):
        a = [10.0, 10.1, 9.9, 10.2, 9.8]
        b = [20.0, 20.1, 19.9, 20.2, 19.8]
        comparison = compare_replicates(a, b, resamples=199)
        assert comparison.significant
        assert comparison.relative_change == pytest.approx(1.0, rel=0.05)

    def test_within_noise_samples_do_not_differ(self):
        a = [10.0, 10.1, 9.9, 10.2, 9.8]
        b = [10.05, 9.95, 10.15, 9.85, 10.1]
        assert not compare_replicates(a, b, resamples=199).significant

    def test_mann_whitney_handles_heavy_ties(self):
        result = mann_whitney([1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 2.0, 2.0])
        assert 0.0 < result.p_value <= 1.0

    def test_identical_constant_samples_have_p_one(self):
        result = mann_whitney([5.0] * 4, [5.0] * 4)
        assert result.p_value == pytest.approx(1.0)
