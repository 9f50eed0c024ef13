"""Independent reference implementations ("oracles") and synthetic inputs
used by the tests.

Each oracle is written in the most transparent way possible — explicit
loops, exhaustive enumeration — so that agreement with the optimized
library code is meaningful.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from softgait import controllers as ctl
from softgait.lut import (SIGMA, LutDomainError, UnreachableTargetError,
                          moment_map)
from softgait.plant import INERTIA_DEG, PROSTHESIS_KEYS, TICK_UPDATE
from softgait.signals import TimeSeries, time_normalize
from softgait.stability.embedding import EmbeddingParams, delay_embed
from softgait.stability.lyapunov import rosenstein_divergence

LOG_FLOOR = 1e-300


def _reference_cell(axis: np.ndarray, c: float) -> tuple[int, float]:
    if not (axis[0] <= c <= axis[-1]):
        raise LutDomainError(f"coordinate {c} outside [{axis[0]}, {axis[-1]}]")
    i = min(int(np.searchsorted(axis, c, side="right")) - 1, len(axis) - 2)
    i = max(i, 0)
    return i, (c - axis[i]) / (axis[i + 1] - axis[i])


def reference_lut_eval(axis_a, axis_b, values, a: float, b: float) -> float:
    """Bilinear table lookup on numpy arrays, node search by searchsorted."""
    i, ta = _reference_cell(axis_a, a)
    j, tb = _reference_cell(axis_b, b)
    v = values
    return float((1 - ta) * (1 - tb) * v[i, j] + ta * (1 - tb) * v[i + 1, j]
                 + (1 - ta) * tb * v[i, j + 1] + ta * tb * v[i + 1, j + 1])


def reference_lut_invert(axis_a, axis_b, values, target: float,
                         fixed: tuple[str, float]) -> float:
    """Monotone table inversion the vectorised way: interpolate the whole
    slice along the free axis, then searchsorted in its rising order."""
    fixed_axis, fixed_value = fixed
    if fixed_axis == "b":
        grid, fixed_grid, vals = axis_a, axis_b, values
    else:
        grid, fixed_grid, vals = axis_b, axis_a, values.T
    j, t = _reference_cell(fixed_grid, fixed_value)
    g = (1 - t) * vals[:, j] + t * vals[:, j + 1]
    increasing = g[-1] > g[0]
    gs = g if increasing else g[::-1]
    cs = grid if increasing else grid[::-1]
    if not (min(g[0], g[-1]) <= target <= max(g[0], g[-1])):
        raise UnreachableTargetError(f"target {target} outside the slice")
    k = int(np.searchsorted(gs, target, side="right")) - 1
    k = min(max(k, 0), len(gs) - 2)
    denom = gs[k + 1] - gs[k]
    t = 0.0 if denom == 0 else (target - gs[k]) / denom
    return float(cs[k] + t * (cs[k + 1] - cs[k]))


def reference_closed_loop(mode: str, K_d: float, omega: np.ndarray,
                          load: np.ndarray) -> dict[str, np.ndarray]:
    """The prosthesis log stepped one tick at a time, every stage in one
    loop: estimator, gait reference by scalar table lookups, TC/AC law and
    plant, with the library's float operations in the library's order."""
    gait_lut, moment_lut = ctl.default_gait_lut(), ctl.default_moment_lut()
    lo_gp, hi_gp = gait_lut.axis_a[[0, -1]].tolist()
    lo_ls, hi_ls = gait_lut.axis_b[[0, -1]].tolist()
    lo_x, hi_x = ctl.MOTOR_RANGE_MM
    lo_q, hi_q = ctl.ANGLE_RANGE_DEG
    leak, two_pi = ctl.LEAK, 2.0 * math.pi
    theta = theta_mean = ms_theta = ms_omega = phase = L_s = 0.0
    x = x_dot = q = q_dot = M = 0.0
    log = {k: np.zeros(len(omega)) for k in PROSTHESIS_KEYS}
    log["omega"] = omega
    for i, (w, ext) in enumerate(zip(omega.tolist(), load.tolist())):
        # phase-plane estimator
        theta = theta * (1.0 - leak) + w * ctl.DT
        theta_mean = theta_mean + (theta - theta_mean) * leak
        theta_c = theta - theta_mean
        ms_theta = ms_theta + (theta_c ** 2 - ms_theta) * leak
        ms_omega = ms_omega + (w ** 2 - ms_omega) * leak
        if not (ms_omega < 1e-9 and abs(w) < 1e-9):
            scale = math.sqrt(ms_omega / ms_theta) if ms_theta > 1e-9 else 1.0
            new_phase = math.atan2(-w / scale, theta_c) % two_pi
            if new_phase == two_pi:
                new_phase = 0.0
            if new_phase - phase < -math.pi:
                L_s = ctl.STRIDE_CALIBRATION * math.sqrt(2.0 * ms_theta)
            phase = new_phase
        gait_percent = phase / two_pi
        # gait reference and moment feedback, blended by stride length
        q_ref = gait_lut.eval(min(max(gait_percent, lo_gp), hi_gp),
                              min(max(L_s, lo_ls), hi_ls))
        x_g = moment_lut.invert(0.0, ("b", q_ref))
        x_m = min(max(ctl.K_M * M, lo_x), hi_x)
        L_s_norm = L_s / ctl.SSP
        if L_s_norm >= 1.0:
            x_tc = x_g
        else:
            a = 0.5 * math.cos(math.pi * L_s_norm) + 0.5
            x_tc = a * x_m + (1.0 - a) * x_g
        x_tc = min(max(x_tc, lo_x), hi_x)
        if mode == "TC":
            x_cmd, q_d = x_tc, math.nan
        else:
            # admittance law and ankle position loop
            q_e = moment_lut.invert(0.0, ("a", min(max(x_tc, lo_x), hi_x)))
            q_d = min(max(q_e + M / K_d, lo_q), hi_q)
            qd = min(max(q_d, lo_q), hi_q)
            try:
                x_ff = moment_lut.invert(M, ("b", qd))
            except UnreachableTargetError:
                x_ff = lo_x if M > moment_lut.eval(lo_x, qd) else hi_x
            x_cmd = min(max(x_ff + ctl.FB_GAIN * (qd - q), lo_x), hi_x)
        # plant, advanced by the zero-order-hold update
        (p00, p01, _, _, _), (p10, p11, _, _, _), \
            (p20, p21, p22, p23, p24), (p30, p31, p32, p33, p34) = TICK_UPDATE
        y = x - x_cmd
        c = (SIGMA * x_cmd + ext) / INERTIA_DEG
        x, x_dot, q, q_dot = (
            p00 * y + p01 * x_dot + x_cmd, p10 * y + p11 * x_dot,
            p20 * y + p21 * x_dot + p22 * q + p23 * q_dot + p24 * c,
            p30 * y + p31 * x_dot + p32 * q + p33 * q_dot + p34 * c)
        M = moment_map(x, q)
        for key, value in (("x", x), ("q", q), ("M", M),
                           ("gait_percent", gait_percent), ("L_s", L_s),
                           ("q_d", q_d), ("x_cmd", x_cmd)):
            log[key][i] = value
    return log


def brute_force_divergence(pts: np.ndarray, samples_per_stride: int,
                           horizon_strides: int = 10,
                           theiler: int | None = None) -> np.ndarray:
    """Mean log-distance curve by exhaustive nearest-neighbor search."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    horizon = horizon_strides * samples_per_stride
    if theiler is None:
        theiler = samples_per_stride
    n_track = n - horizon
    pairs = []
    for i in range(n_track):
        best_j, best_d = None, math.inf
        for j in range(n_track):
            if abs(i - j) <= theiler:
                continue
            d = float(np.linalg.norm(pts[i] - pts[j]))
            if d < best_d:
                best_d, best_j = d, j
        if best_j is not None:
            pairs.append((i, best_j))
    curve = np.empty(horizon + 1)
    for step in range(horizon + 1):
        logs = [math.log(max(float(np.linalg.norm(pts[i + step]
                                                  - pts[j + step])),
                             LOG_FLOOR))
                for i, j in pairs]
        curve[step] = float(np.mean(logs))
    return curve


def reference_log_distances(series: np.ndarray, i_idx: np.ndarray,
                            j_idx: np.ndarray, tau: int, dim: int,
                            horizon: int) -> np.ndarray:
    """ln distance of each delay-vector pair at steps 0..horizon, with one
    fancy-indexed gather of every pair's samples, squared coordinate by
    coordinate in the library's summation order."""
    offs = np.arange(horizon + 1 + (dim - 1) * tau)
    d2 = (series[i_idx[:, None] + offs] - series[j_idx[:, None] + offs]) ** 2
    tot = d2[:, :horizon + 1].copy()
    for m in range(1, dim):
        tot += d2[:, m * tau:m * tau + horizon + 1]
    return np.log(np.maximum(np.sqrt(tot), LOG_FLOOR))


def per_stride_time_normalize(series: TimeSeries, events: np.ndarray,
                              n_strides: int, n_points: int) -> np.ndarray:
    """time_normalize's samples with the grid filled one stride at a time:
    stride k, the half-open [events[k], events[k + 1]), fills points
    k * pps to (k + 1) * pps - 1."""
    pps = n_points // n_strides
    positions = np.empty(n_points)
    for k in range(n_strides):
        a, b = events[k], events[k + 1]
        positions[k * pps:(k + 1) * pps] = a + (b - a) * np.arange(pps) / pps
    return np.interp(positions, np.arange(len(series)), series.samples)


def reference_mutual_information(x: np.ndarray, y: np.ndarray,
                                 n_bins: int = 32) -> float:
    """Mutual information in bits of two equal-length samples, each binned
    into n_bins equally populated bins by its own stable sort."""
    def bins(v):
        order = np.argsort(v, kind="stable")
        ranks = np.empty(len(v), dtype=np.int64)
        ranks[order] = np.arange(len(v))
        return (ranks * n_bins) // len(v)

    joint = np.bincount(bins(x) * n_bins + bins(y),
                        minlength=n_bins * n_bins)
    joint = joint.reshape(n_bins, n_bins) / len(x)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    denom = np.outer(px, py)[nz]
    return float(np.sum(joint[nz] * np.log2(joint[nz] / denom)))


def reference_ami_curve(x: np.ndarray, max_lag: int,
                        n_bins: int = 32) -> np.ndarray:
    """AMI curve with two sorts per lag: x[:n - lag] against x[lag:]."""
    n = len(x)
    return np.array([reference_mutual_information(x[:n - lag], x[lag:],
                                                  n_bins)
                     for lag in range(max_lag + 1)])


def per_window_divergence(series: TimeSeries, events: np.ndarray,
                          window_strides: int, n_windows: int,
                          points_per_window: int, params: EmbeddingParams):
    """Windowed exponents the direct way: one rosenstein_divergence call
    per window, each with its own neighbor search and tracking.

    Returns (per_window_short, per_window_long, mean_curve).
    """
    total = window_strides + n_windows - 1
    spst = points_per_window // window_strides
    normalized = time_normalize(series, np.asarray(events)[:total + 1],
                                total, total * spst)
    whole = delay_embed(normalized, params)
    n_window_points = points_per_window - (params.dim - 1) * params.tau
    short, long_, curves = [], [], []
    for w in range(n_windows):
        lo = w * spst
        res = rosenstein_divergence(whole[lo:lo + n_window_points], spst)
        short.append(res.lambda_short)
        long_.append(res.lambda_long)
        curves.append(res.curve)
    return np.array(short), np.array(long_), np.mean(curves, axis=0)


def exhaustive_mos(xcom: np.ndarray, cop: np.ndarray, stance: np.ndarray,
                   events: np.ndarray, mode: str) -> list[float]:
    """Per-cycle extreme |cop - xcom| by scanning every frame explicitly."""
    values = []
    for k in range(len(events) - 1):
        extreme = None
        for f in range(events[k], events[k + 1]):
            if not stance[f]:
                continue
            gap = abs(cop[f] - xcom[f])
            if extreme is None:
                extreme = gap
            elif mode == "min":
                extreme = min(extreme, gap)
            else:
                extreme = max(extreme, gap)
        if extreme is not None:
            values.append(extreme)
    return values


def exhaustive_ranksum_p(a, b) -> float:
    """Two-sided rank-sum p-value by enumerating every assignment of the
    pooled observations to the first sample (no ties assumed)."""
    a = list(map(float, a))
    b = list(map(float, b))
    pooled = np.asarray(a + b)
    order = np.argsort(pooled)
    ranks = np.empty(len(pooled))
    ranks[order] = np.arange(1, len(pooled) + 1)
    n1, n = len(a), len(pooled)
    w_obs = ranks[:n1].sum()
    obs_dev = abs(2.0 * w_obs - n1 * (n + 1))
    hits = total = 0
    for subset in combinations(range(n), n1):
        w = ranks[list(subset)].sum()
        if abs(2.0 * w - n1 * (n + 1)) >= obs_dev - 1e-9:
            hits += 1
        total += 1
    return hits / total


def shuffle_ranksum_p(a, b, n_shuffles: int, seed: int = 0) -> float:
    """Monte-carlo permutation p-value of the rank-sum statistic."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled)
    ranks = np.empty(len(pooled))
    ranks[order] = np.arange(1, len(pooled) + 1)
    n1, n = len(a), len(pooled)
    obs_dev = abs(2.0 * ranks[:n1].sum() - n1 * (n + 1))
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 5000
    done = 0
    while done < n_shuffles:
        m = min(chunk, n_shuffles - done)
        # random subsets via argsort of uniform noise, one row per shuffle
        keys = rng.random((m, n))
        idx = np.argpartition(keys, n1 - 1, axis=1)[:, :n1]
        w = ranks[idx].sum(axis=1)
        hits += int(np.sum(np.abs(2.0 * w - n1 * (n + 1)) >= obs_dev - 1e-9))
        done += m
    return hits / n_shuffles


_AXIS_HARMONICS = {
    # weights of stride harmonics 1..4 per axis, loosely shaped like CoM
    # velocity spectra during walking
    "ML": (1.0, 0.9, 0.7, 0.5, 0.3),
    "AP": (0.6, 1.0, 0.8, 0.55, 0.35),
    "VT": (0.55, 1.0, 0.8, 0.5, 0.35),
}


def gait_like_velocity(axis: str, seed: int, n_strides: int = 50,
                       pts_per_stride: int = 100, jitter: float = 0.03,
                       noise: float = 0.08) -> TimeSeries:
    """Synthetic stride-periodic velocity with per-stride variability,
    used to exercise the embedding-parameter estimators."""
    weights = _AXIS_HARMONICS[axis]
    rng = np.random.default_rng(seed)
    n = n_strides * pts_per_stride
    phases = rng.uniform(0, 2 * np.pi, size=len(weights))
    # per-stride amplitude and phase variability, linearly interpolated so
    # stride boundaries stay smooth
    knots = np.arange(n_strides + 1) * pts_per_stride
    t = np.arange(n)
    amp_k = 1.0 + jitter * np.clip(rng.standard_normal(n_strides + 1), -3, 3)
    ph_k = jitter * np.clip(rng.standard_normal(n_strides + 1), -3, 3)
    stride_amp = np.interp(t, knots, amp_k)
    stride_ph = np.interp(t, knots, ph_k)
    s = t / pts_per_stride + stride_ph
    x = np.zeros(n)
    for h, (w, ph) in enumerate(zip(weights, phases), start=1):
        x += w * np.sin(2 * np.pi * h * s + ph)
    # band-limited noise: white noise through a short gaussian kernel, so
    # the false-neighbor test sees a low-dimensional signal
    kern = np.exp(-0.5 * (np.arange(-6, 7) / 2.5) ** 2)
    kern /= kern.sum()
    colored = np.convolve(rng.standard_normal(n), kern, mode="same")
    colored /= max(colored.std(), 1e-12)
    x = stride_amp * x + noise * colored
    return TimeSeries(x, float(pts_per_stride))
