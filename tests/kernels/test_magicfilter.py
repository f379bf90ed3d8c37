"""Tests for repro.kernels.magicfilter (numerics + Figure 7 model)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machines import SNOWBALL_A9500, TEGRA2_NODE, XEON_X5550
from repro.errors import ConfigurationError
from repro.kernels.magicfilter import (
    MAGICFILTER_LENGTH,
    MAGICFILTER_TAPS,
    MagicFilterBenchmark,
    UNROLL_RANGE,
    apply_magicfilter_3d,
    magicfilter_1d,
    magicfilter_1d_unrolled,
)


def normal(rng, n):
    return [rng.gauss(0.0, 1.0) for _ in range(n)]


def roll(line, shift):
    """``line`` rotated right by *shift* places (``numpy.roll``)."""
    return line[-shift:] + line[:-shift]


def flat(values):
    if isinstance(values, list):
        return [x for v in values for x in flat(v)]
    return [values]


def assert_allclose(actual, desired, rtol, atol=0.0):
    """Elementwise ``|actual - desired| <= atol + rtol * |desired|`` over
    equally shaped nested lists (``numpy.testing.assert_allclose``)."""
    actual, desired = flat(actual), flat(desired)
    assert len(actual) == len(desired)
    for a, d in zip(actual, desired):
        assert abs(a - d) <= atol + rtol * abs(d), (a, d)


def filter_axis(volume, axis):
    """One 1-D pass along *axis* of a nested ``[x][y][z]`` volume, by
    explicit indexing."""
    shape = (len(volume), len(volume[0]), len(volume[0][0]))
    out = [[list(row) for row in plane] for plane in volume]
    rest = [range(n) for a, n in enumerate(shape) if a != axis]
    for u, v in itertools.product(*rest):
        points = []
        for t in range(shape[axis]):
            index = [u, v]
            index.insert(axis, t)
            points.append(index)
        line = magicfilter_1d([volume[i][j][k] for i, j, k in points])
        for (i, j, k), value in zip(points, line):
            out[i][j][k] = value
    return out


class TestTaps:
    def test_sixteen_taps(self):
        assert len(MAGICFILTER_TAPS) == MAGICFILTER_LENGTH == 16

    def test_normalized(self):
        assert sum(MAGICFILTER_TAPS) == pytest.approx(1.0)


class TestNumericKernel:
    def test_constant_field_is_preserved(self):
        """A normalized filter leaves a constant potential unchanged."""
        data = [3.25] * 40
        out = magicfilter_1d(data)
        assert_allclose(out, data, rtol=1e-12)

    def test_linearity(self):
        rng = random.Random(1)
        a = normal(rng, 32)
        b = normal(rng, 32)
        lhs = magicfilter_1d([2.0 * x + y for x, y in zip(a, b)])
        rhs = [
            2.0 * x + y
            for x, y in zip(magicfilter_1d(a), magicfilter_1d(b))
        ]
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_shift_equivariance_under_periodicity(self):
        data = normal(random.Random(2), 48)
        shifted = roll(data, 5)
        assert_allclose(
            magicfilter_1d(shifted), roll(magicfilter_1d(data), 5), rtol=1e-12
        )

    def test_explicit_convolution_definition(self):
        data = normal(random.Random(3), 24)
        taps = MAGICFILTER_TAPS
        out = magicfilter_1d(data)
        n = len(data)
        offset = len(taps) // 2
        for i in (0, 7, 23):
            expected = sum(
                taps[k] * data[(i + k - offset) % n] for k in range(len(taps))
            )
            assert out[i] == pytest.approx(expected)

    def test_3d_separability_axis_order_independent(self):
        """The 3-D filter is one 1-D pass along each axis, in any order."""
        rng = random.Random(4)
        volume = [[normal(rng, 8) for _ in range(7)] for _ in range(6)]
        once = apply_magicfilter_3d(volume)
        manual = filter_axis(filter_axis(filter_axis(volume, 2), 1), 0)
        assert_allclose(once, manual, rtol=1e-12, atol=1e-14)

    def test_3d_requires_3d_input(self):
        with pytest.raises(ConfigurationError):
            apply_magicfilter_3d([[0.0] * 4 for _ in range(4)])

    def test_3d_rejects_an_empty_axis(self):
        with pytest.raises(ConfigurationError):
            apply_magicfilter_3d([[[]]])

    def test_empty_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            magicfilter_1d([0.0] * 8, [])


class TestUnrolledVariants:
    @pytest.mark.parametrize("unroll", [1, 2, 3, 4, 5, 7, 8, 12])
    def test_every_unroll_degree_computes_identical_results(self, unroll):
        """The paper's generator contract: all 12 variants are
        semantically identical."""
        data = normal(random.Random(unroll), 37)
        reference = magicfilter_1d(data)
        unrolled = magicfilter_1d_unrolled(data, unroll=unroll)
        assert_allclose(unrolled, reference, rtol=1e-12)

    def test_remainder_loop_handles_non_multiple_sizes(self):
        data = [float(i) for i in range(10)]
        assert_allclose(
            magicfilter_1d_unrolled(data, unroll=8),
            magicfilter_1d(data),
            rtol=1e-12,
        )

    def test_invalid_unroll_rejected(self):
        with pytest.raises(ConfigurationError):
            magicfilter_1d_unrolled([0.0] * 8, unroll=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(17, 40), st.integers(1, 12))
    def test_property_unrolled_equals_reference(self, n, unroll):
        data = normal(random.Random(n * 13 + unroll), n)
        assert_allclose(
            magicfilter_1d_unrolled(data, unroll=unroll),
            magicfilter_1d(data),
            rtol=1e-10,
        )


class TestCounterModel:
    def test_nehalem_sweet_spot_is_4_to_12(self):
        """Figure 7a: '[4:12] range' on Nehalem."""
        bench = MagicFilterBenchmark(XEON_X5550)
        assert bench.sweet_spot() == list(range(4, 13))

    def test_tegra2_sweet_spot_is_4_to_7(self):
        """Figure 7b: 'smaller on Tegra2 (the [4:7] range)'."""
        bench = MagicFilterBenchmark(TEGRA2_NODE)
        assert bench.sweet_spot() == [4, 5, 6, 7]

    def test_tegra2_cycles_grow_significantly_at_12(self):
        """'the total number of cycles significantly grows when
        unrolling too much (unroll=12)'."""
        bench = MagicFilterBenchmark(TEGRA2_NODE)
        best = bench.variant_cost(bench.best_unroll()).cycles_per_element
        worst = bench.variant_cost(12).cycles_per_element
        assert worst > 1.8 * best

    def test_nehalem_cycles_stay_flat_at_12(self):
        bench = MagicFilterBenchmark(XEON_X5550)
        best = bench.variant_cost(bench.best_unroll()).cycles_per_element
        assert bench.variant_cost(12).cycles_per_element < 1.3 * best

    def test_curves_fall_steeply_from_unroll_1(self):
        """Both curves are 'roughly convex': unroll 1 is far from the
        optimum on both machines."""
        for machine in (XEON_X5550, TEGRA2_NODE):
            bench = MagicFilterBenchmark(machine)
            u1 = bench.variant_cost(1).cycles_per_element
            best = bench.variant_cost(bench.best_unroll()).cycles_per_element
            assert u1 > 3 * best

    def test_tegra2_accesses_grow_from_unroll_4(self):
        """'the number of cache accesses that start growing very
        quickly (starting at unroll=4)'."""
        bench = MagicFilterBenchmark(TEGRA2_NODE)
        accesses = {u: bench.variant_cost(u).accesses_per_element for u in UNROLL_RANGE}
        trough = min(accesses, key=accesses.get)
        assert trough <= 4
        assert accesses[12] > accesses[trough] * 1.5

    def test_nehalem_access_staircase_at_8_or_9(self):
        """'some sort of small staircase [...] unroll=9 for Nehalem'."""
        bench = MagicFilterBenchmark(XEON_X5550)
        accesses = {u: bench.variant_cost(u).accesses_per_element for u in UNROLL_RANGE}
        assert accesses[7] < accesses[9]  # the step exists
        assert min(accesses, key=accesses.get) in (6, 7, 8)

    def test_counters_scale_with_problem_size(self):
        small = MagicFilterBenchmark(TEGRA2_NODE, problem_shape=(8, 8, 8))
        large = MagicFilterBenchmark(TEGRA2_NODE, problem_shape=(16, 8, 8))
        ratio = large.counters(4).cycles / small.counters(4).cycles
        assert ratio == pytest.approx(2.0)

    def test_counters_report_flops(self):
        bench = MagicFilterBenchmark(TEGRA2_NODE, problem_shape=(4, 4, 4))
        counters = bench.counters(1)
        assert counters.read("PAPI_FP_OPS") == 3 * 64 * 32

    def test_snowball_slow_vfp_chain_dominates_small_unrolls(self):
        """A9500's NEON is SP-only: its DP chain behaves like a slow
        scalar FPU, so unroll 1 is catastrophic (latency-bound)."""
        bench = MagicFilterBenchmark(SNOWBALL_A9500)
        u1 = bench.variant_cost(1).cycles_per_element
        best = bench.variant_cost(bench.best_unroll()).cycles_per_element
        assert u1 > 4 * best
        assert 5 <= bench.best_unroll() <= 8

    def test_register_file_size_sets_the_sweet_spot_width(self):
        """The Figure 7 mechanism isolated: Tegra2 (16 double regs)
        has a strictly narrower sweet spot than the otherwise-similar
        A9500 (32 double registers via its NEON file)."""
        tegra = MagicFilterBenchmark(TEGRA2_NODE).sweet_spot()
        snowball = MagicFilterBenchmark(SNOWBALL_A9500).sweet_spot()
        assert max(tegra) < max(snowball)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            MagicFilterBenchmark(TEGRA2_NODE, problem_shape=(0, 4, 4))
        bench = MagicFilterBenchmark(TEGRA2_NODE)
        with pytest.raises(ConfigurationError):
            bench.variant_cost(0)
        with pytest.raises(ConfigurationError):
            bench.sweet_spot(())
