import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from helpers import (brute_force_divergence, gait_like_velocity,
                     per_window_divergence, reference_log_distances)
from softgait.signals import TimeSeries
from softgait.stability import lyapunov
from softgait.stability.embedding import EmbeddingParams, delay_embed
from softgait.stability.lyapunov import (rosenstein_divergence,
                                         windowed_lyapunov)


def toy_attractor(n=200, dim=3, seed=0):
    """A smooth random curve in dim dimensions, not delay-structured."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    pts = np.zeros((n, dim))
    for d in range(dim):
        for h in range(1, 5):
            pts[:, d] += rng.normal() * np.sin(2 * np.pi * h * t / n
                                               + rng.uniform(0, 2 * np.pi))
    pts += 0.01 * rng.normal(size=pts.shape)
    return pts


class TestAgainstBruteForce:
    def test_generic_path_matches_oracle(self):
        pts = toy_attractor()
        res = rosenstein_divergence(pts, samples_per_stride=10)
        oracle = brute_force_divergence(pts, 10, 10)
        assert np.max(np.abs(res.curve - oracle)) < 1e-12

    def test_delay_structured_path_matches_oracle(self):
        rng = np.random.default_rng(1)
        t = np.arange(400)
        x = np.sin(2 * np.pi * t / 40.0) + 0.3 * np.sin(2 * np.pi * t / 13.0)
        x += 0.02 * rng.normal(size=len(x))
        pts = delay_embed(TimeSeries(x, 40.0), EmbeddingParams(tau=5, dim=3))
        res = rosenstein_divergence(pts, samples_per_stride=15)
        oracle = brute_force_divergence(pts, 15, 10)
        assert np.max(np.abs(res.curve - oracle)) < 1e-12


class TestDivergenceProperties:
    def test_periodic_orbit_has_near_zero_exponents(self):
        t = np.arange(100)
        one = np.sin(2 * np.pi * t / 100.0) \
            + 0.4 * np.sin(4 * np.pi * t / 100.0)
        x = np.tile(one, 40)   # exactly periodic
        pts = delay_embed(TimeSeries(x, 100.0), EmbeddingParams(tau=25, dim=3))
        res = rosenstein_divergence(pts, samples_per_stride=100)
        assert abs(res.lambda_short) < 0.05
        assert abs(res.lambda_long) < 0.01

    def test_slope_units_are_per_stride(self):
        # curve that rises exactly 1 per stride gives slope 1
        spst = 50
        curve = np.arange(10 * spst + 1) / spst
        from softgait.stability.lyapunov import _slope
        assert _slope(curve, spst, 0.0, 1.0) == pytest.approx(1.0)
        assert _slope(curve, spst, 4.0, 10.0) == pytest.approx(1.0)

    def test_too_short_attractor_raises(self):
        with pytest.raises(ValueError):
            rosenstein_divergence(toy_attractor(n=50), samples_per_stride=10)

    def test_reports_pair_count(self):
        pts = toy_attractor()
        res = rosenstein_divergence(pts, samples_per_stride=10)
        assert 10 <= res.n_pairs <= len(pts) - 100


class TestOwnNeighbors:
    def test_band_wider_than_the_base(self):
        # 2 * theiler + 2 = 14 candidates exceed the 10 rows; rows 3-6 have
        # no row outside their band
        base = np.random.default_rng(5).standard_normal((10, 3))
        rows = np.arange(10)
        has, nbr = lyapunov._own_neighbors(base, rows, theiler=6)
        for i in rows:
            outside = [j for j in rows if abs(i - j) > 6]
            assert has[i] == bool(outside)
            if outside:
                d = [np.linalg.norm(base[i] - base[j]) for j in outside]
                assert nbr[i] == outside[int(np.argmin(d))]
        assert not has[3:7].any() and has[[0, 1, 2, 7, 8, 9]].all()


class TestLogDistancesMatchesGather:
    """The strided pair gather must give the fancy-indexed gather's
    log distances bit for bit."""

    def test_every_delay_and_dimension(self):
        rng = np.random.default_rng(8)
        x = np.sin(np.arange(1200) / 9.0) + 0.1 * rng.standard_normal(1200)
        horizon = 40
        for tau in range(1, 31):
            for dim in range(2, 7):
                last = len(x) - (horizon + 1 + (dim - 1) * tau)
                # windows starting at `last` end at the last sample; the
                # pair (7, 7) has distance 0, which the log floor catches
                i_idx = np.concatenate((rng.integers(0, last + 1, 300),
                                        [last, 7, last]))
                j_idx = np.concatenate((rng.integers(0, last + 1, 300),
                                        [0, 7, last - 1]))
                win = sliding_window_view(x, horizon + 1 + (dim - 1) * tau)
                got = lyapunov._log_distances(win, i_idx, j_idx, tau, dim,
                                              horizon)
                want = reference_log_distances(x, i_idx, j_idx, tau, dim,
                                               horizon)
                assert np.array_equal(got, want), (tau, dim)


class TestPairRuns:
    """Run extraction must let each pair's values, summed once per run
    into the run's windows, give every window's own sum over its pairs."""

    @staticmethod
    def dense_and_run_sums(table, value):
        n_windows = len(table) - 2
        dense = np.zeros((n_windows,) + value.shape[2:])
        for w in range(n_windows):
            for i, j in enumerate(table[w + 1]):
                if j >= 0:
                    dense[w] += value[i, j]
        runs = np.zeros_like(dense)
        for first, stop, i, j in zip(*lyapunov._pair_runs(table)):
            runs[first:stop] += value[i, j]
        return dense, runs

    def test_pair_left_and_chosen_again(self):
        table = np.full((4 + 2, 6), -1)
        table[[1, 2, 4], 0] = 5   # windows 0-1 and 3 choose (0, 5) ...
        table[3, 0] = 4           # ... and window 2 chooses (0, 4)
        table[[1, 2, 4], 1] = 3   # windows 0-1 and 3 choose (1, 3), 2 none
        table[1:5, 2] = 0         # every window chooses (2, 0)
        table[3, 3] = 1           # window 2 alone chooses (3, 1)
        first, stop, i, j = lyapunov._pair_runs(table)
        assert sorted(zip(i.tolist(), j.tolist(), first.tolist(),
                          stop.tolist())) == [
            (0, 4, 2, 3), (0, 5, 0, 2), (0, 5, 3, 4), (1, 3, 0, 2),
            (1, 3, 3, 4), (2, 0, 0, 4), (3, 1, 2, 3)]
        value = np.random.default_rng(2).standard_normal((6, 6, 7))
        dense, runs = self.dense_and_run_sums(table, value)
        assert np.max(np.abs(runs - dense)) < 1e-12

    def test_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_windows, n_rows = rng.integers(1, 8), rng.integers(1, 12)
            table = np.full((n_windows + 2, n_rows), -1)
            table[1:-1] = rng.integers(-1, 3, size=(n_windows, n_rows))
            value = rng.integers(-100, 100, size=(n_rows, 3))
            dense, runs = self.dense_and_run_sums(table, value)
            assert np.array_equal(runs, dense)


class TestWindowed:
    def make_series_and_events(self, n_strides, pts=120):
        t = np.arange(n_strides * pts)
        x = np.sin(2 * np.pi * t / pts) + 0.3 * np.sin(6 * np.pi * t / pts)
        x += 0.05 * np.random.default_rng(0).normal(size=len(t))
        events = np.arange(n_strides + 1) * pts
        events[-1] -= 1
        return TimeSeries(x, 100.0), events

    def test_window_count_and_curve_shape(self):
        series, events = self.make_series_and_events(18)
        res = windowed_lyapunov(series, events, window_strides=12,
                                n_windows=6, points_per_window=1800,
                                params=EmbeddingParams(tau=10, dim=3))
        assert len(res.per_window_short) == 6
        assert len(res.per_window_long) == 6
        assert len(res.mean_curve) == 10 * (1800 // 12) + 1
        assert res.lambda_short_mean == pytest.approx(
            np.mean(res.per_window_short))

    def test_estimates_parameters_when_not_given(self):
        series, events = self.make_series_and_events(18)
        res = windowed_lyapunov(series, events, window_strides=12,
                                n_windows=3, points_per_window=1800)
        assert res.params.tau >= 1
        assert res.params.dim >= 2

    def test_no_windows_raises(self):
        series, events = self.make_series_and_events(18)
        for n_windows in (0, -2):
            with pytest.raises(ValueError, match="n_windows"):
                windowed_lyapunov(series, events, window_strides=12,
                                  n_windows=n_windows, points_per_window=1800,
                                  params=EmbeddingParams(tau=10, dim=3))

    def test_insufficient_strides_raises(self):
        series, events = self.make_series_and_events(14)
        with pytest.raises(ValueError):
            windowed_lyapunov(series, events, window_strides=12,
                              n_windows=6, points_per_window=1800,
                              params=EmbeddingParams(tau=10, dim=3))


class TestSharedSearchMatchesPerWindowLoop:
    """windowed_lyapunov shares one neighbor search and one tracking pass
    among its windows, tracking on the scalar series; it must agree with
    one rosenstein_divergence call per window, which tracks the delay
    vectors step by step, up to summation order."""

    WINDOWS = dict(window_strides=20, n_windows=8, points_per_window=2000)
    # union rows at tau=10, dim=3: 7 windows' offsets of 100 rows, then
    # 2000 - 2*10 - 10 strides*100 = 980 base points of the last window
    N_UNION = 7 * 100 + 980

    def jittered(self):
        # criterion-6-style data: stride lengths jitter around the period
        rng = np.random.default_rng(3)
        gaps = rng.integers(90, 105, size=30)
        events = np.concatenate(([0], np.cumsum(gaps)))
        t = np.arange(events[-1] + 1)
        x = np.sin(2 * np.pi * t / 97.0) + 0.3 * np.sin(6 * np.pi * t / 97.0) \
            + 0.05 * rng.standard_normal(len(t))
        return TimeSeries(x, 100.0), events

    @staticmethod
    def windowed_with_queries(monkeypatch, series, events, params, windows):
        """windowed_lyapunov's result and its neighbor queries, each as
        (rows queried, k)."""
        queries = []

        class RecordingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                queries.append((len(x), k))
                return super().query(x, k=k, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(lyapunov, "cKDTree", RecordingTree)
            res = windowed_lyapunov(series, events, params=params, **windows)
        return res, queries

    def assert_matches_loop(self, monkeypatch, series, events, params=None,
                            windows=WINDOWS):
        """Compare with the per-window loop; return the shared search's
        queries."""
        res, queries = self.windowed_with_queries(monkeypatch, series,
                                                  events, params, windows)
        short, long_, curve = per_window_divergence(
            series, events, params=res.params, **windows)
        assert np.max(np.abs(res.per_window_short - short)) < 1e-12
        assert np.max(np.abs(res.per_window_long - long_)) < 1e-12
        assert np.max(np.abs(res.mean_curve - curve)) < 1e-12
        return queries

    def test_jittered_strides(self, monkeypatch):
        queries = self.assert_matches_loop(
            monkeypatch, *self.jittered(), EmbeddingParams(tau=10, dim=3))
        assert queries[0] == (self.N_UNION, lyapunov.SHARED_K)

    def test_estimated_embedding(self, monkeypatch):
        series = gait_like_velocity("AP", seed=4, n_strides=30)
        events = np.arange(31) * 100
        self.assert_matches_loop(monkeypatch, series, events)

    def test_every_row_needs_a_second_round(self, monkeypatch):
        # the single candidate of each row is the row itself
        monkeypatch.setattr(lyapunov, "SHARED_K", 1)
        queries = self.assert_matches_loop(
            monkeypatch, *self.jittered(), EmbeddingParams(tau=10, dim=3))
        assert queries[:2] == [(self.N_UNION, 1), (self.N_UNION, 4)]

    def test_some_rows_need_a_second_round(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "SHARED_K", 2)
        queries = self.assert_matches_loop(
            monkeypatch, *self.jittered(), EmbeddingParams(tau=10, dim=3))
        assert queries[0] == (self.N_UNION, 2)
        assert len(queries) > 1 and 0 < queries[1][0] < self.N_UNION
        assert queries[1][1] == 8
        # each round queries only rows left from the one before
        assert all(b[0] <= a[0] for a, b in zip(queries, queries[1:]))

    # 13-stride windows of 10 points at tau=9, dim=2 keep 130 - 9 - 100
    # = 21 base points, one more than twice the Theiler band of 10: the
    # middle row of each window has no neighbor outside its band
    SHORT = dict(window_strides=13, n_windows=4, points_per_window=130)

    def test_rows_without_any_neighbor_stop_the_search(self, monkeypatch):
        n_union = 3 * 10 + 21
        queries = self.assert_matches_loop(
            monkeypatch, *self.jittered(), EmbeddingParams(tau=9, dim=2),
            windows=self.SHORT)
        # the last round reaches every row, and the four middle rows are
        # among those it still queries
        assert [k for _, k in queries] == [4, 16, n_union]
        assert 4 <= queries[-1][0] < n_union

    def test_too_few_pairs_raise_as_the_per_window_loop_does(self,
                                                             monkeypatch):
        # tau=15 leaves 15 base points: 8 have a neighbor in their window
        series, events = self.jittered()
        params = EmbeddingParams(tau=15, dim=2)
        with pytest.raises(ValueError, match="fewer than 10 valid neighbor"):
            per_window_divergence(series, events, params=params, **self.SHORT)
        with pytest.raises(ValueError, match="fewer than 10 valid neighbor"):
            self.windowed_with_queries(monkeypatch, series, events, params,
                                       self.SHORT)


class TestHenonCalibration:
    def test_largest_exponent_of_the_henon_map(self):
        """The Henon map (a 1.4, b 0.3) has a largest exponent of 0.418
        per iteration (Rosenstein et al. 1993, Physica D 65:117, Table I).
        With one sample per stride, the long-term exponent of one
        4000-point window of its x-series is that exponent."""
        n = 4000
        x = np.empty(n + 1001)
        x[0], x[1] = 0.1, 0.0
        for i in range(2, len(x)):
            x[i] = 1.0 - 1.4 * x[i - 1] ** 2 + 0.3 * x[i - 2]
        x = x[1000:]   # off the transient, onto the attractor
        res = windowed_lyapunov(TimeSeries(x, 1.0), np.arange(n + 1),
                                window_strides=n, n_windows=1,
                                points_per_window=n,
                                params=EmbeddingParams(tau=1, dim=2))
        assert res.lambda_long_mean == pytest.approx(0.418, rel=0.05)
