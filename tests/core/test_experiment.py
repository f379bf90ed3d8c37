"""Tests for repro.core.experiment."""

import pytest
from hypothesis import given, strategies as st

from repro.core.experiment import ExperimentPlan, Factor
from repro.errors import ConfigurationError


class TestFactor:
    def test_levels_are_tuple(self):
        assert Factor("size", [1, 2]).levels == (1, 2)

    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            Factor("size", [])

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Factor("", [1])


class TestExperimentPlan:
    def test_full_factorial_size(self):
        plan = ExperimentPlan(
            [Factor("a", [1, 2, 3]), Factor("b", ["x", "y"])], replicates=4
        )
        assert len(plan) == 24

    def test_combinations_cover_the_product(self):
        plan = ExperimentPlan([Factor("a", [1, 2]), Factor("b", [3, 4])])
        combos = plan.combinations()
        assert {tuple(sorted(c.items())) for c in combos} == {
            (("a", 1), ("b", 3)),
            (("a", 1), ("b", 4)),
            (("a", 2), ("b", 3)),
            (("a", 2), ("b", 4)),
        }

    def test_no_factors_single_empty_combination(self):
        plan = ExperimentPlan([])
        assert plan.combinations() == [{}]
        assert len(plan) == 1

    def test_duplicate_factor_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentPlan([Factor("a", [1]), Factor("a", [2])])

    def test_zero_replicates_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentPlan([Factor("a", [1])], replicates=0)

    def test_randomization_is_seeded(self):
        factors = [Factor("a", list(range(10)))]
        plan1 = ExperimentPlan(factors, replicates=3, seed=42)
        plan2 = ExperimentPlan(factors, replicates=3, seed=42)
        assert [t.factors for t in plan1] == [t.factors for t in plan2]

    def test_different_seeds_differ(self):
        factors = [Factor("a", list(range(10)))]
        plan1 = ExperimentPlan(factors, replicates=3, seed=1)
        plan2 = ExperimentPlan(factors, replicates=3, seed=2)
        assert [t.factors for t in plan1] != [t.factors for t in plan2]

    def test_randomized_order_interleaves_replicates(self):
        """The paper's remedy for §V-A-1 bias: replicates of one level
        must not all run back-to-back."""
        plan = ExperimentPlan([Factor("a", list(range(8)))], replicates=8, seed=0)
        levels = [t.factors["a"] for t in plan]
        longest_run = 1
        current = 1
        for prev, cur in zip(levels, levels[1:]):
            current = current + 1 if prev == cur else 1
            longest_run = max(longest_run, current)
        assert longest_run < 8

    def test_unrandomized_order_is_deterministic_cartesian(self):
        plan = ExperimentPlan([Factor("a", [1, 2])], replicates=2, randomize=False)
        assert [(t.factors["a"], t.replicate) for t in plan] == [
            (1, 0), (1, 1), (2, 0), (2, 1),
        ]

    def test_trial_indices_are_sequential(self):
        plan = ExperimentPlan([Factor("a", [1, 2, 3])], replicates=2)
        assert [t.index for t in plan.trials()] == list(range(6))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 3))
    def test_property_every_combination_replicated_exactly(self, n_levels, reps, seed):
        plan = ExperimentPlan(
            [Factor("a", list(range(n_levels)))], replicates=reps, seed=seed
        )
        counts = {}
        for trial in plan:
            counts[trial.factors["a"]] = counts.get(trial.factors["a"], 0) + 1
        assert counts == {level: reps for level in range(n_levels)}
