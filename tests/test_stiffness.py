import numpy as np
import pytest

from softgait.signals import TimeSeries
from softgait.stiffness import (CycleAverage, StiffnessProfile,
                                average_cycle, quasi_stiffness,
                                segment_cycles)


def linear_cycles(K, n_cycles=5, pts=100):
    """Cycles whose stance moment is exactly K times the angle."""
    u = np.arange(pts) / pts
    q = 10.0 * np.sin(np.pi * np.minimum(u / 0.6, 1.0))
    return {"q": np.tile(q, (n_cycles, 1)), "M": np.tile(K * q, (n_cycles, 1))}


def series(x):
    return TimeSeries(x, 100.0)


class TestSegmentation:
    def test_counts_and_lengths(self):
        n = 500
        sig = {"q": series(np.sin(np.arange(n) * 0.1)),
               "M": series(np.cos(np.arange(n) * 0.1))}
        events = np.array([0, 120, 260, 410])
        cycles = segment_cycles(sig, events)
        assert cycles["q"].shape == (3, 100)
        assert cycles["M"].shape == (3, 100)

    def test_cycle_start_is_event_sample(self):
        cycles = segment_cycles({"v": series(np.arange(300.0))},
                                np.array([10, 150, 290]))
        assert cycles["v"][0, 0] == 10.0
        assert cycles["v"][1, 0] == 150.0

    def test_rows_interpolate_their_own_cycle(self):
        x = np.sin(np.arange(500) * 0.1)
        events = np.array([0, 120, 260, 410])
        cycles = segment_cycles({"x": series(x)}, events)
        u = np.arange(100) / 100
        for k, (a, b) in enumerate(zip(events[:-1], events[1:])):
            want = np.interp(a + (b - a) * u, np.arange(a, b + 1),
                             x[a:b + 1])
            assert np.max(np.abs(cycles["x"][k] - want)) < 1e-12

    def test_requires_two_events(self):
        with pytest.raises(ValueError):
            segment_cycles({"q": series(np.zeros(10))}, np.array([3]))


class TestAveraging:
    def test_pointwise_mean(self):
        cycles = {"q": np.array([np.full(10, 1.0), np.full(10, 3.0)]),
                  "M": np.array([np.full(10, 2.0), np.full(10, 6.0)])}
        avg = average_cycle(cycles)
        assert np.allclose(avg.mean_angle, 2.0)
        assert np.allclose(avg.mean_moment, 4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_cycle({"q": np.empty((0, 100)), "M": np.empty((0, 100))})

    def test_cycle_average_validation(self):
        with pytest.raises(ValueError):
            CycleAverage(np.zeros(5), np.zeros(4))


class TestQuasiStiffness:
    def test_linear_relation_recovers_slope(self):
        for K in (5.0, 12.5, 20.0):
            avg = average_cycle(linear_cycles(K))
            profile = quasi_stiffness(avg)
            valid = profile.stiffness[np.isfinite(profile.stiffness)]
            assert np.allclose(valid, K, atol=1e-6)

    def test_window_covers_20_to_85_percent_of_stance(self):
        avg = average_cycle(linear_cycles(10.0))
        profile = quasi_stiffness(avg)
        assert profile.stance_percent[0] == pytest.approx(20.0, abs=2.0)
        assert profile.stance_percent[-1] == pytest.approx(85.0, abs=2.0)

    def test_plateau_is_masked_not_extrapolated(self):
        pts = 100
        q = np.zeros(pts)          # angle never moves
        m = np.linspace(0.0, 30.0, pts)
        profile = quasi_stiffness(CycleAverage(m, q))
        assert np.all(np.isnan(profile.stiffness))

    def test_terminal_value_picks_nearest_sample(self):
        profile = StiffnessProfile(np.array([50.0, 60.0, 70.0]),
                                   np.array([1.0, 2.0, 3.0]))
        assert profile.terminal_value(60.0) == 2.0
        assert profile.terminal_value(64.0) == 2.0

    def test_too_short_profile_raises(self):
        with pytest.raises(ValueError):
            quasi_stiffness(CycleAverage(np.zeros(3), np.zeros(3)))
