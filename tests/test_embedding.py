import numpy as np
import pytest

from helpers import reference_ami_curve
from softgait.signals import TimeSeries
from softgait.stability.embedding import (EmbeddingParams, NoMinimumError,
                                          ami_curve, ami_delay, delay_embed,
                                          fnn_dimension)


def series(x, rate=100.0):
    return TimeSeries(np.asarray(x, dtype=float), rate)


class TestMutualInformation:
    """Properties of the binned mutual information behind ami_curve."""

    def test_self_information_is_log_bins(self):
        x = np.random.default_rng(0).normal(size=20000)
        mi = ami_curve(series(x), max_lag=0, n_bins=32)[0]
        assert mi == pytest.approx(np.log2(32), abs=0.01)

    def test_independent_signals_share_nothing(self):
        # white noise: x[:n - lag] and x[lag:] are independent samples
        x = np.random.default_rng(1).normal(size=20000)
        curve = ami_curve(series(x), max_lag=3, n_bins=16)
        assert np.all(curve[1:] < 0.05)

    def test_invariant_under_monotone_rescaling(self):
        x = np.random.default_rng(2).normal(size=5000)
        a = ami_curve(series(x), max_lag=5)
        for y in (np.exp(x), 5.0 * x - 2.0):
            assert np.max(np.abs(ami_curve(series(y), max_lag=5) - a)) \
                < 1e-12

    def test_symmetric(self):
        # reversing time swaps the two slices at every lag
        rng = np.random.default_rng(3)
        x = rng.normal(size=4000)
        x = x + np.roll(x, 3) + rng.normal(size=4000)
        np.testing.assert_allclose(ami_curve(series(x[::-1]), max_lag=6),
                                   ami_curve(series(x), max_lag=6),
                                   rtol=0, atol=1e-9)


class TestAmiCurveMatchesPerLagLoop:
    """ami_curve sorts the series once; it must give exactly the curve of
    two stable sorts per lag."""

    @pytest.mark.parametrize("n_bins", [8, 16, 32])
    def test_smooth_series(self, n_bins):
        rng = np.random.default_rng(n_bins)
        t = np.arange(3000)
        x = np.sin(2 * np.pi * t / 97.0) + 0.1 * rng.standard_normal(3000)
        assert np.array_equal(ami_curve(series(x), 30, n_bins),
                              reference_ami_curve(x, 30, n_bins))

    @pytest.mark.parametrize("n_bins", [8, 16, 32])
    def test_many_tied_values(self, n_bins):
        # eleven distinct values: every bin edge falls inside a run of ties
        x = np.round(np.random.default_rng(5).normal(size=2000), 0)
        assert len(np.unique(x)) < 12
        assert np.array_equal(ami_curve(series(x), 30, n_bins),
                              reference_ami_curve(x, 30, n_bins))

    def test_random_lengths_and_ties(self):
        rng = np.random.default_rng(6)
        for case in range(12):
            x = rng.normal(size=int(rng.integers(300, 4000)))
            if case % 3 == 0:
                x = np.round(x, 1)
            n_bins = (8, 16, 32)[case % 3]
            assert np.array_equal(ami_curve(series(x), 30, n_bins),
                                  reference_ami_curve(x, 30, n_bins))


class TestAmiDelay:
    def test_returns_first_local_minimum_of_curve(self):
        rng = np.random.default_rng(7)
        t = np.arange(4000)
        x = np.sin(2 * np.pi * t / 100.0) \
            + 0.4 * np.sin(6 * np.pi * t / 100.0 + 1.0) \
            + 0.05 * rng.standard_normal(len(t))
        tau = ami_delay(series(x), max_lag=40)
        curve = ami_curve(series(x), max_lag=40)
        first = next(lag for lag in range(1, 40)
                     if curve[lag] < curve[lag - 1]
                     and curve[lag] <= curve[lag + 1])
        assert tau == first
        assert 2 <= tau <= 20

    def test_curve_starts_at_self_information(self):
        x = np.random.default_rng(4).normal(size=5000)
        curve = ami_curve(series(x), max_lag=5, n_bins=16)
        assert curve[0] == pytest.approx(np.log2(16), abs=0.05)
        assert np.all(curve[1:] < curve[0])

    def test_no_minimum_raises(self):
        # strictly decreasing AMI: slow noise-free drifting signal
        t = np.arange(3000)
        x = np.sin(2 * np.pi * t / 3000.0)
        with pytest.raises(NoMinimumError):
            ami_delay(series(x), max_lag=30)

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            ami_delay(series(np.zeros(100)), max_lag=30)


class TestDelayEmbed:
    def test_points_are_lagged_copies(self):
        x = np.arange(20.0)
        pts = delay_embed(series(x), EmbeddingParams(tau=3, dim=3))
        assert pts.shape == (14, 3)
        assert np.array_equal(pts[0], [0.0, 3.0, 6.0])
        assert np.array_equal(pts[-1], [13.0, 16.0, 19.0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            delay_embed(series(np.zeros(5)), EmbeddingParams(tau=3, dim=3))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EmbeddingParams(tau=0, dim=3)
        with pytest.raises(ValueError):
            EmbeddingParams(tau=3, dim=1)


class TestFnn:
    def test_noisy_sine_embeds_in_low_dimension(self):
        rng = np.random.default_rng(0)
        t = np.arange(4000)
        x = np.sin(2 * np.pi * t / 100.0) + 0.02 * rng.standard_normal(4000)
        dim, saturated = fnn_dimension(series(x), tau=25, max_dim=6)
        assert not saturated
        assert dim in (2, 3)

    def test_two_harmonic_signal_embeds_in_four(self):
        rng = np.random.default_rng(1)
        t = np.arange(4000)
        x = np.sin(2 * np.pi * t / 100.0) + 0.5 * np.sin(4 * np.pi * t / 100.0)
        x += 0.02 * rng.standard_normal(4000)
        assert fnn_dimension(series(x), tau=20, max_dim=5) == (4, False)

    def test_series_too_short_to_test_every_dimension_saturates(self):
        # 30 samples at tau 10 leave no neighbor pair from dimension 3 on
        x = np.random.default_rng(0).normal(size=30)
        assert fnn_dimension(series(x), tau=10, max_dim=5) == (5, True)

    def test_white_noise_saturates(self):
        x = np.random.default_rng(5).normal(size=3000)
        dim, saturated = fnn_dimension(series(x), tau=1, max_dim=4)
        assert saturated
        assert dim == 4

    def test_minimum_dimension_is_two(self):
        # even a trivially predictable ramp reports at least dim 2
        x = np.linspace(0.0, 1.0, 2000)
        dim, _ = fnn_dimension(series(x), tau=5, max_dim=6)
        assert dim >= 2
