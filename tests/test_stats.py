import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from helpers import exhaustive_ranksum_p, shuffle_ranksum_p
from softgait.stability.stats import (ALPHA, EXACT_MAX_N, delta_lambda,
                                      wilcoxon_ranksum)


class TestDeltaLambda:
    def test_plain_difference(self):
        assert delta_lambda(8.30, 7.13) == pytest.approx(1.17)
        assert delta_lambda(7.13, 8.30) == pytest.approx(-1.17)

    def test_negative_means_improved(self):
        assert delta_lambda(1.0, 2.0) < 0
        assert delta_lambda(2.0, 1.0) > 0


class TestExactAgainstEnumeration:
    def test_small_fixed_samples(self):
        a = [1.2, 3.4, 5.1]
        b = [2.2, 0.4, 6.6, 7.7]
        p, _ = wilcoxon_ranksum(a, b)
        assert p == pytest.approx(exhaustive_ranksum_p(a, b), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
    def test_random_small_samples(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n1)
        b = rng.normal(loc=0.5, size=n2)
        p, _ = wilcoxon_ranksum(a, b)
        assert p == pytest.approx(exhaustive_ranksum_p(a, b), abs=1e-12)

    def test_extreme_separation_gives_smallest_p(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [10.0, 11.0, 12.0, 13.0]
        p, _ = wilcoxon_ranksum(a, b)
        # both one-sided extremes of the null: 2 / C(8, 4)
        assert p == pytest.approx(2.0 / 70.0, abs=1e-12)


class TestNormalApproximation:
    def test_close_to_permutation_for_large_samples(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=60)
        b = rng.normal(loc=0.35, size=60)
        p, _ = wilcoxon_ranksum(a, b)
        p_perm = shuffle_ranksum_p(a, b, 20_000, seed=1)
        assert abs(p - p_perm) < 0.01

    def test_tie_correction_path(self):
        a = [1.0, 2.0, 2.0, 3.0] * 8
        b = [2.0, 3.0, 3.0, 4.0] * 8
        p, sig = wilcoxon_ranksum(a, b)
        assert 0.0 < p < 1.0


class TestAgainstScipy:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30),
           st.booleans())
    @example(0, EXACT_MAX_N, EXACT_MAX_N, False)
    @example(0, EXACT_MAX_N + 1, EXACT_MAX_N, False)
    @example(0, EXACT_MAX_N, EXACT_MAX_N + 1, False)
    @example(0, EXACT_MAX_N + 1, EXACT_MAX_N + 1, True)
    @example(1, EXACT_MAX_N, EXACT_MAX_N, True)
    def test_p_value_matches_mannwhitneyu(self, seed, n1, n2, tied):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n1)
        b = rng.normal(loc=0.4, size=n2)
        if tied:
            a, b = np.round(a, 1), np.round(b, 1)
        pooled = np.concatenate([a, b])
        if np.all(pooled == pooled[0]):
            return
        exact = (n1 <= EXACT_MAX_N and n2 <= EXACT_MAX_N
                 and len(np.unique(pooled)) == len(pooled))
        want = mannwhitneyu(a, b, use_continuity=False,
                            alternative="two-sided",
                            method="exact" if exact else "asymptotic").pvalue
        assert wilcoxon_ranksum(a, b)[0] == pytest.approx(want, rel=1e-12,
                                                          abs=0)


class TestEdgeCases:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_ranksum([1.0, bad, 3.0], [2.0, 4.0])
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_ranksum([1.0] * 30, [2.0] * 29 + [bad])

    def test_identical_samples_not_significant(self):
        p, sig = wilcoxon_ranksum([5.0, 5.0], [5.0, 5.0])
        assert p == 1.0
        assert not sig

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_ranksum([], [1.0])

    def test_significance_respects_alpha(self):
        # shifts of 4 and 5 put p at 0.015 and 0.0045, either side of 0.01
        a = list(range(10))
        p4, sig4 = wilcoxon_ranksum(a, [v + 4 for v in a])
        p5, sig5 = wilcoxon_ranksum(a, [v + 5 for v in a])
        assert ALPHA == 0.01
        assert p5 < ALPHA < p4 < 0.05
        assert sig5 and not sig4

    def test_symmetry_in_sample_order(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=7)
        b = rng.normal(size=5)
        assert wilcoxon_ranksum(a, b)[0] == pytest.approx(
            wilcoxon_ranksum(b, a)[0], abs=1e-12)
