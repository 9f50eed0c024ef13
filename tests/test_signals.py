import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, filtfilt, lfilter

from helpers import per_stride_time_normalize
from softgait.analysis import LYAPUNOV_FILTER, MOS_FILTER
from softgait.signals import (TimeSeries, _butter_lowpass,
                              butterworth_lowpass, finite_difference,
                              moving_average, time_normalize)
from softgait.stability.balance import STRIKE_FILTER, estimate_com
from softgait.stiffness import PROSTHESIS_FILTER

# every (order, cutoff Hz) the package filters with, at 100 Hz
PACKAGE_FILTERS = (LYAPUNOV_FILTER, MOS_FILTER, STRIKE_FILTER,
                   PROSTHESIS_FILTER)


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

    @pytest.mark.parametrize("order", [2, 4])
    def test_length_guard_matches_the_edge_padding(self, order):
        # each end is padded with 3 * (order + 1) samples, which needs at
        # least one sample more
        edge = 3 * (order + 1)
        x = np.sin(np.arange(edge + 1) / 3.0)
        with pytest.raises(ValueError, match="too short"):
            butterworth_lowpass(make_series(x[:edge]), order, 5.0)
        out = butterworth_lowpass(make_series(x), order, 5.0).samples
        assert np.allclose(out, filtfilt(*butter(order, 0.1), x),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("rate", [50.0, 100.0])
    @pytest.mark.parametrize(
        "cutoff", sorted({1.0, 20.0} | {f[1] for f in PACKAGE_FILTERS}))
    def test_coefficients_equal_scipy_butter(self, order, rate, cutoff):
        wn = cutoff / (rate / 2)
        for got, want in zip(_butter_lowpass(order, wn), butter(order, wn)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order, cutoff", PACKAGE_FILTERS)
    def test_matches_filtfilt_on_random_walks(self, order, cutoff):
        rng = np.random.default_rng(order * 100 + int(cutoff))
        for n in (3 * (order + 1) + 1, 50, 1000, 20000):
            x = np.cumsum(rng.normal(size=n))
            _assert_filtfilt(x, order, cutoff)

    def test_matches_filtfilt_on_the_default_trial(self, default_trial):
        rec = default_trial
        com = estimate_com(rec.markers, rec.rate)
        for order, cutoff in (LYAPUNOV_FILTER, MOS_FILTER):
            for ts in com.values():
                _assert_filtfilt(ts.samples, order, cutoff)
        _assert_filtfilt(rec.markers["LHEEL"][:, 2], *STRIKE_FILTER)
        for name in ("q", "M"):
            _assert_filtfilt(rec.prosthesis[name], *PROSTHESIS_FILTER)


def _assert_filtfilt(x, order, cutoff, rate=100.0):
    """butterworth_lowpass is filtfilt to within 1e-12 of the output's
    largest magnitude."""
    got = butterworth_lowpass(make_series(x, rate), order, cutoff).samples
    want = filtfilt(*butter(order, cutoff / (rate / 2)), x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

    def test_equals_the_per_stride_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_strides = int(rng.integers(1, 30))
            pps = int(rng.integers(1, 150))
            n_events = n_strides + int(rng.integers(1, 4))
            events = int(rng.integers(0, 50)) \
                + np.cumsum(rng.integers(1, 300, size=n_events))
            ts = make_series(rng.normal(size=events[-1] + 10))
            out = time_normalize(ts, events, n_strides, n_strides * pps)
            want = per_stride_time_normalize(ts, events, n_strides,
                                             n_strides * pps)
            assert out.sample_rate == pps
            assert np.array_equal(out.samples, want)

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
