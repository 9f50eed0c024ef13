import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_mos, left_strikes
from softgait.config import RunConfig
from softgait.plant import generate_trial
from softgait.signals import TimeSeries
from softgait.stability.balance import (GRAVITY, MarkerGapError,
                                        com_velocity, detect_foot_strikes,
                                        estimate_com, mos_ap, mos_ml,
                                        pendulum_eigenfrequency,
                                        pendulum_length, stance_frames,
                                        stance_onsets, xcom)


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
        force = np.repeat([0.0, 0.04 * bw, 0.06 * bw, bw], 10)
        mask, counts = stance_frames(force, bw, 100.0)
        assert mask.tolist() == [False] * 20 + [True] * 20
        assert counts == {"runs_dropped": 0, "gaps_closed": 0}

    @pytest.mark.parametrize("rate", [100.0, 200.0])
    def test_short_runs_dropped_then_short_gaps_closed(self, rate):
        # in units of 0.01 s: stance runs of 9 (too short), 30, 10 and 40
        # frames, with swing gaps of 20, 9 (too short) and 10 between them;
        # the run of 9 is dropped, which leaves the gap around it long
        bw = 59.0 * GRAVITY
        layout = [(0, 20), (1, 9), (0, 20), (1, 30), (0, 9), (1, 10),
                  (0, 10), (1, 40), (0, 5)]
        per = round(rate / 100.0)
        force = np.repeat([bw * on for on, n in layout],
                          [n * per for on, n in layout])
        mask, counts = stance_frames(force, bw, rate)
        want = np.repeat([0, 1, 0, 1, 0], [49, 49, 10, 40, 5]) > 0
        assert np.array_equal(mask, np.repeat(want, per))
        assert counts == {"runs_dropped": 1, "gaps_closed": 1}
        assert stance_onsets(mask).tolist() == [49 * per, 108 * per]

    def test_runs_and_gaps_at_the_recording_ends(self):
        # a short stance run at an end is dropped; a short swing at an end
        # lies between no two stance runs, so it stays swing
        bw = 59.0 * GRAVITY
        force = np.repeat([bw, 0.0, bw, 0.0], [5, 20, 30, 3])
        mask, counts = stance_frames(force, bw, 100.0)
        assert np.array_equal(mask, np.repeat([0, 0, 1, 0],
                                               [5, 20, 30, 3]) > 0)
        assert counts == {"runs_dropped": 1, "gaps_closed": 0}


class TestFootStrikeDetection:
    def test_detects_minima_of_synthetic_heel(self):
        # the heel is lowest at each stride start; the force rises 0.03 s
        # later and stays up for 60 % of the stride
        rate, stride = 100.0, 1.4
        n = int(20 * stride * rate)
        t = np.arange(n) / rate
        s = (t / stride) % 1.0
        height = 40.0 * np.sin(np.pi * s) ** 2 + 5.0
        height += 0.3 * np.random.default_rng(0).normal(size=n)
        stance = ((t - 0.03) / stride) % 1.0 < 0.6
        strikes = detect_foot_strikes(TimeSeries(height, rate), stance)
        truth = np.round(np.arange(1, 20) * stride * rate)
        assert len(strikes) == 19
        assert np.abs(strikes - truth).max() <= 3

    def test_no_minima_raises(self):
        # without a stance onset no heel minimum is searched
        heel = TimeSeries(np.zeros(500), 100.0)
        for stance in (np.zeros(500, dtype=bool), np.ones(500, dtype=bool)):
            with pytest.raises(ValueError, match="no stance onset"):
                detect_foot_strikes(heel, stance)

    @pytest.mark.parametrize("first, want", [(9, [296]), (10, [10, 296])])
    def test_onset_needs_a_whole_window_before_it(self, first, want):
        # the heel is lowest at frame 296, 4 frames before the last onset
        heel = TimeSeries(np.abs(np.arange(500) - 296.0), 100.0)
        stance = np.zeros(500, dtype=bool)
        stance[[first, first + 1, 300]] = True
        assert stance_onsets(stance).tolist() == [first, 300]
        assert detect_foot_strikes(heel, stance).tolist() == want

    def test_one_strike_per_default_stride(self, default_run):
        # the strike at sample 0 of a 201-stride trial is never an onset
        rec = default_run
        assert len(rec.events_left) == 201
        assert len(left_strikes(rec)) == 200

    def test_short_strides_are_not_merged(self):
        # a period jitter of 0.2 allows strides of 0.4 x nominal; every
        # recorded strike after the first is detected within 5 samples
        rec = generate_trial(RunConfig(period_jitter=0.2, seed=1))
        events = rec.events_left[1:, None]
        assert np.abs(events - left_strikes(rec)).min(axis=1).max() <= 5

    @pytest.mark.parametrize("config", [
        {"period_jitter": 0.3, "seed": 1},
        {"amplitude_jitter": 0.3, "ground_stiffness": 25.0},
        {"body_mass": 120.0, "ground_stiffness": 25.0}],
        ids=["period_jitter", "amplitude_jitter_25", "body_mass_25"])
    def test_every_strike_found_on_irregular_and_soft_ground(self, config):
        # the heel minima with the nominal stride's spacing missed or split
        # strides here, up to 31 samples off
        rec = generate_trial(RunConfig(**config))
        strikes = left_strikes(rec)
        events = rec.events_left[1:, None]
        assert len(strikes) == 200
        assert np.abs(events - strikes).min(axis=1).max() <= 3


class TestComVelocity:
    def test_differentiates_each_axis(self):
        com = {a: TimeSeries(np.arange(50.0) * k, 100.0)
               for k, a in enumerate(("ML", "AP", "VT"), start=1)}
        vel = com_velocity(com)
        assert np.allclose(vel["ML"].samples, 100.0)
        assert np.allclose(vel["VT"].samples, 300.0)
