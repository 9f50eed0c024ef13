import numpy as np
import pytest

from softgait.stiffness import (CycleAverage, StiffnessProfile,
                                average_cycle, quasi_stiffness,
                                segment_cycles)


def linear_cycles(K, n_cycles=5, pts=100):
    """Cycles whose stance moment is exactly K times the angle."""
    u = np.arange(pts) / pts
    q = 10.0 * np.sin(np.pi * np.minimum(u / 0.6, 1.0))
    m = K * q
    return [{"q": q.copy(), "M": m.copy()} for _ in range(n_cycles)]


class TestSegmentation:
    def test_counts_and_lengths(self):
        n = 500
        sig = {"q": np.sin(np.arange(n) * 0.1), "M": np.cos(np.arange(n) * 0.1)}
        events = np.array([0, 120, 260, 410])
        cycles = segment_cycles(sig, events)
        assert len(cycles) == 3
        for c in cycles:
            assert len(c["q"]) == 100 and len(c["M"]) == 100

    def test_cycle_start_is_event_sample(self):
        sig = {"v": np.arange(300.0)}
        cycles = segment_cycles(sig, np.array([10, 150, 290]))
        assert cycles[0]["v"][0] == 10.0
        assert cycles[1]["v"][0] == 150.0

    def test_requires_two_events(self):
        with pytest.raises(ValueError):
            segment_cycles({"q": np.zeros(10)}, np.array([3]))


class TestAveraging:
    def test_pointwise_mean(self):
        cycles = [{"q": np.full(10, 1.0), "M": np.full(10, 2.0)},
                  {"q": np.full(10, 3.0), "M": np.full(10, 6.0)}]
        avg = average_cycle(cycles)
        assert np.allclose(avg.mean_angle, 2.0)
        assert np.allclose(avg.mean_moment, 4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_cycle([])

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
