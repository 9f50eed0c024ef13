import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, lfilter

from softgait.signals import (TimeSeries, butterworth_lowpass,
                              finite_difference, moving_average,
                              time_normalize)


def make_series(samples, rate=100.0):
    return TimeSeries(np.asarray(samples, dtype=float), rate)


class TestTimeSeries:
    def test_basic_properties(self):
        ts = make_series([1.0, 2.0, 3.0], rate=50.0)
        assert len(ts) == 3
        assert ts.dt == pytest.approx(0.02)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((3, 2)), 100.0)
        with pytest.raises(ValueError):
            TimeSeries(np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]), 100.0)


class TestButterworth:
    def test_preserves_dc(self):
        ts = make_series(np.full(400, 3.7))
        out = butterworth_lowpass(ts, 4, 5.0)
        assert np.allclose(out.samples, 3.7)

    def test_attenuates_high_frequency(self):
        t = np.arange(1000) / 100.0
        ts = make_series(np.sin(2 * np.pi * 40.0 * t))
        out = butterworth_lowpass(ts, 4, 5.0)
        assert np.max(np.abs(out.samples[100:-100])) < 0.01

    def test_passes_low_frequency(self):
        t = np.arange(2000) / 100.0
        ts = make_series(np.sin(2 * np.pi * 0.5 * t))
        out = butterworth_lowpass(ts, 4, 5.0)
        assert np.max(np.abs(out.samples[200:-200]
                             - ts.samples[200:-200])) < 0.01

    def test_zero_phase_has_no_lag(self):
        t = np.arange(2000) / 100.0
        ts = make_series(np.sin(2 * np.pi * 1.0 * t))
        zp = butterworth_lowpass(ts, 2, 5.0).samples
        # the same filter in a single causal pass does lag
        sp = lfilter(*butter(2, 5.0 / 50.0, btype="low"), ts.samples)
        mid = slice(500, 1500)
        lag_zp = np.argmax(np.correlate(zp[mid], ts.samples[mid], "full"))
        lag_sp = np.argmax(np.correlate(sp[mid], ts.samples[mid], "full"))
        assert lag_zp == len(ts.samples[mid]) - 1
        assert lag_sp != len(ts.samples[mid]) - 1

    def test_rejects_bad_parameters(self):
        ts = make_series(np.zeros(100))
        with pytest.raises(ValueError):
            butterworth_lowpass(ts, 3, 5.0)
        with pytest.raises(ValueError):
            butterworth_lowpass(ts, 2, 60.0)   # above Nyquist at 100 Hz
        with pytest.raises(ValueError):
            butterworth_lowpass(make_series(np.zeros(4)), 2, 5.0)


class TestMovingAverage:
    def test_matches_manual_computation(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        out = moving_average(make_series(x), 3).samples
        expected = [1.0, 1.5, 7 / 3, 14 / 3, 28 / 3]
        assert np.allclose(out, expected)

    def test_window_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=50)
        assert np.allclose(moving_average(make_series(x), 1).samples, x)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=60),
           st.integers(1, 10))
    def test_output_within_input_range(self, values, window):
        window = min(window, len(values))
        out = moving_average(make_series(values), window).samples
        assert np.all(out >= min(values) - 1e-9)
        assert np.all(out <= max(values) + 1e-9)

    def test_rejects_bad_window(self):
        ts = make_series(np.zeros(10))
        with pytest.raises(ValueError):
            moving_average(ts, 0)
        with pytest.raises(ValueError):
            moving_average(ts, 11)


class TestFiniteDifference:
    def test_linear_ramp_is_exact(self):
        t = np.arange(100) / 100.0
        ts = make_series(3.0 * t + 1.0)
        assert np.allclose(finite_difference(ts).samples, 3.0)

    def test_sine_derivative(self):
        t = np.arange(5000) / 1000.0
        ts = make_series(np.sin(2 * np.pi * t), rate=1000.0)
        d = finite_difference(ts).samples
        expected = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.max(np.abs(d[5:-5] - expected[5:-5])) < 1e-3

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            finite_difference(make_series([1.0]))


class TestTimeNormalize:
    def test_point_count_and_grid(self):
        ts = make_series(np.sin(np.arange(1000) * 0.1))
        events = np.array([0, 103, 198, 305, 401])
        out = time_normalize(ts, events, 4, 400)
        assert len(out) == 400
        assert out.sample_rate == 100.0

    def test_stride_starts_hit_event_samples(self):
        x = np.arange(500.0)
        events = np.array([10, 60, 130, 220])
        out = time_normalize(make_series(x), events, 3, 300)
        # the signal is the sample index, so stride starts recover events
        assert out.samples[0] == 10.0
        assert out.samples[100] == 60.0
        assert out.samples[200] == 130.0

    def test_rejects_indivisible_points(self):
        ts = make_series(np.zeros(300))
        with pytest.raises(ValueError):
            time_normalize(ts, np.array([0, 100, 200]), 2, 301)

    def test_rejects_short_event_list(self):
        ts = make_series(np.zeros(300))
        with pytest.raises(ValueError):
            time_normalize(ts, np.array([0, 100]), 2, 200)

    def test_rejects_unsorted_events(self):
        ts = make_series(np.zeros(300))
        for events in ([0, 100, 90, 200], [0, 100, 100, 200]):
            with pytest.raises(ValueError):
                time_normalize(ts, np.array(events), 3, 300)
