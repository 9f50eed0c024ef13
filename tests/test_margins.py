import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from helpers import exhaustive_mos
from softgait.config import RunConfig
from softgait.plant import generate_trial
from softgait.signals import TimeSeries, butterworth_lowpass
from softgait.stability.balance import (GRAVITY, STRIKE_FILTER,
                                        STRIKE_PROMINENCE_MM, MarkerGapError,
                                        _find_peaks, com_velocity,
                                        detect_foot_strikes, estimate_com,
                                        mos_ap, mos_ml,
                                        pendulum_eigenfrequency,
                                        pendulum_length, stance_frames, xcom)


@pytest.fixture(scope="module", params=range(5))
def default_run(request, default_trial):
    """The default RunConfig() trial at seeds 0 to 4."""
    seed = request.param
    return default_trial if seed == 0 \
        else generate_trial(RunConfig(seed=seed))


def make_markers(n=200, rate=100.0, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, 3)) * 10.0 + [0.0, 0.0, 970.0]
    markers = {}
    for k, name in enumerate(("LASI", "RASI", "LPSI", "RPSI")):
        markers[name] = base + rng.normal(size=(n, 3))
    return markers


class TestEstimateCom:
    def test_mean_of_four_pelvis_markers(self):
        markers = make_markers()
        com = estimate_com(markers, 100.0)
        stack = np.stack([markers[m] for m in
                          ("LASI", "RASI", "LPSI", "RPSI")])
        expected = stack.mean(axis=0)
        for k, axis in enumerate(("ML", "AP", "VT")):
            assert np.allclose(com[axis].samples, expected[:, k])

    def test_missing_marker_raises(self):
        markers = make_markers()
        del markers["LPSI"]
        with pytest.raises(MarkerGapError):
            estimate_com(markers, 100.0)

    def test_nan_frames_raise_instead_of_imputing(self):
        markers = make_markers()
        markers["RASI"][10, 1] = np.nan
        with pytest.raises(MarkerGapError):
            estimate_com(markers, 100.0)


class TestXcom:
    def test_zero_velocity_reduces_to_com(self):
        com = {a: TimeSeries(np.full(50, v), 100.0)
               for a, v in (("ML", 12.0), ("AP", -3.0), ("VT", 970.0))}
        vel = {a: ts.with_samples(np.zeros(50)) for a, ts in com.items()}
        out = xcom(com, vel, 0.97)
        assert np.allclose(out["ML"].samples, 12.0)
        assert np.allclose(out["AP"].samples, -3.0)

    def test_velocity_shifts_by_v_over_omega(self):
        com = {a: TimeSeries(np.zeros(10), 100.0)
               for a in ("ML", "AP", "VT")}
        vel = {a: ts.with_samples(np.full(10, 100.0))
               for a, ts in com.items()}
        out = xcom(com, vel, 0.97)
        w0 = pendulum_eigenfrequency(0.97)
        assert np.allclose(out["ML"].samples, 100.0 / w0)

    def test_eigenfrequency_value(self):
        assert pendulum_eigenfrequency(0.97) == pytest.approx(
            np.sqrt(GRAVITY / 0.97))
        with pytest.raises(ValueError):
            pendulum_eigenfrequency(0.0)


class TestPendulumLength:
    def test_known_geometry(self):
        n = 100
        com = {"ML": TimeSeries(np.zeros(n), 100.0),
               "AP": TimeSeries(np.zeros(n), 100.0),
               "VT": TimeSeries(np.full(n, 970.0), 100.0)}
        heel = np.zeros((n, 3))
        events = np.array([10, 50, 90])
        assert pendulum_length(com, heel, events) == pytest.approx(0.97)


class TestMosAgainstExhaustiveScan:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_frame_scan_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        xc = TimeSeries(rng.normal(size=n) * 20.0, 100.0)
        cop = rng.normal(size=n) * 30.0
        stance = rng.random(n) < 0.7
        events = np.sort(rng.choice(np.arange(1, n - 1), size=5,
                                    replace=False))
        ml = mos_ml(xc, cop, stance, events)
        ap = mos_ap(xc, cop, stance, events)
        assert ml.per_cycle.tolist() == exhaustive_mos(
            xc.samples, cop, stance, events, "min")
        assert ap.per_cycle.tolist() == exhaustive_mos(
            xc.samples, cop, stance, events, "max")

    def test_cycles_without_stance_are_skipped(self):
        xc = TimeSeries(np.zeros(100), 100.0)
        cop = np.ones(100)
        stance = np.zeros(100, dtype=bool)
        stance[:30] = True
        res = mos_ml(xc, cop, stance, np.array([0, 40, 80]))
        assert len(res.per_cycle) == 1
        assert res.skipped == [1]

    def test_mean_and_sd(self):
        res_vals = np.array([1.0, 2.0, 3.0])
        from softgait.stability.balance import MosResult
        res = MosResult(res_vals)
        assert res.mean == pytest.approx(2.0)
        assert res.sd == pytest.approx(1.0)
        empty = MosResult(np.array([]))
        assert np.isnan(empty.mean)


class TestStanceFrames:
    def test_threshold_at_body_weight_fraction(self):
        bw = 59.0 * GRAVITY
        force = np.array([0.0, 0.04 * bw, 0.06 * bw, bw])
        mask = stance_frames(force, bw)
        assert mask.tolist() == [False, False, True, True]


class TestFootStrikeDetection:
    def test_detects_minima_of_synthetic_heel(self):
        rate, stride = 100.0, 1.4
        n = int(20 * stride * rate)
        t = np.arange(n) / rate
        s = (t / stride) % 1.0
        height = 40.0 * np.sin(np.pi * s) ** 2 + 5.0
        height += 0.3 * np.random.default_rng(0).normal(size=n)
        strikes = detect_foot_strikes(TimeSeries(height, rate),
                                      nominal_stride_s=stride)
        truth = np.round(np.arange(1, 20) * stride * rate)
        assert len(strikes) >= 18
        for ev in strikes:
            assert np.min(np.abs(truth - ev)) <= 3

    def test_no_minima_raises(self):
        flat = TimeSeries(np.zeros(500), 100.0)
        with pytest.raises(ValueError):
            detect_foot_strikes(flat, nominal_stride_s=1.0)

    def test_peak_helper_equals_find_peaks(self):
        rng = np.random.default_rng(0)
        signals = [np.zeros(0), np.zeros(1), np.zeros(50), np.arange(50.0),
                   np.arange(50.0)[::-1], np.array([0.0, 1.0, 0.0]),
                   np.array([0.0, 2.0, 2.0, 0.0]),
                   np.array([1.0, 0.0, 0.0, 3.0, 3.0])]
        for k in range(1500):
            n = int(rng.integers(2, 300))
            kind = k % 5
            if kind == 0:
                x = rng.normal(size=n)
            elif kind == 1:     # ties and short plateaus
                x = np.round(2.0 * rng.normal(size=n))
            elif kind == 2:
                x = np.cumsum(rng.normal(size=n))
            elif kind == 3:     # long plateaus, some at the edges
                x = np.repeat(np.round(rng.normal(size=n)),
                              rng.integers(1, 6, size=n))[:n]
            else:               # periodic with peaks near the edges
                x = np.round(np.sin(np.arange(n) / rng.uniform(1.0, 20.0)
                                    + rng.uniform(0.0, 6.3))
                             + 0.3 * rng.normal(size=n), 1)
            signals.append(x)
        for x in signals:
            prominence = float(rng.choice([0.0, 0.3, 1.0, 3.0]))
            distance = float(rng.choice([1, 2, 3, 7, 30])) \
                * rng.choice([1.0, rng.uniform(1.0, 1.5)])
            want = find_peaks(x, prominence=prominence, distance=distance)[0]
            assert np.array_equal(_find_peaks(x, prominence, distance), want)

    def test_peak_helper_equals_find_peaks_at_paper_scale(self, default_run):
        # the heel signal and settings of detect_foot_strikes
        rec = default_run
        heel = TimeSeries(rec.markers["LHEEL"][:, 2], rec.rate)
        x = -butterworth_lowpass(heel, *STRIKE_FILTER).samples
        distance = max(int(0.25 * rec.meta["stride_period"] * rec.rate), 1)
        want = find_peaks(x, prominence=STRIKE_PROMINENCE_MM,
                          distance=distance)[0]
        assert len(want) == 200
        assert np.array_equal(
            _find_peaks(x, STRIKE_PROMINENCE_MM, distance), want)

    def test_one_strike_per_default_stride(self, default_run):
        # the strike at sample 0 of a 201-stride trial is never a minimum
        rec = default_run
        strikes = detect_foot_strikes(
            TimeSeries(rec.markers["LHEEL"][:, 2], rec.rate),
            rec.meta["stride_period"])
        assert len(rec.events_left) == 201
        assert len(strikes) == 200

    def test_short_strides_are_not_merged(self):
        # a period jitter of 0.2 allows strides of 0.4 x nominal; every
        # recorded strike after the first is detected within 5 samples
        rec = generate_trial(RunConfig(period_jitter=0.2, seed=1))
        strikes = detect_foot_strikes(
            TimeSeries(rec.markers["LHEEL"][:, 2], rec.rate),
            rec.meta["stride_period"])
        events = rec.events_left[1:, None]
        assert np.abs(events - strikes).min(axis=1).max() <= 5


class TestComVelocity:
    def test_differentiates_each_axis(self):
        com = {a: TimeSeries(np.arange(50.0) * k, 100.0)
               for k, a in enumerate(("ML", "AP", "VT"), start=1)}
        vel = com_velocity(com)
        assert np.allclose(vel["ML"].samples, 100.0)
        assert np.allclose(vel["VT"].samples, 300.0)
