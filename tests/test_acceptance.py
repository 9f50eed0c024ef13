"""Acceptance criteria for the package, one test per criterion.

Each test finishes by printing a single [PASS]/[FAIL] line (visible with
pytest -s or in captured output on failure) and asserting the same
condition.
"""

import json
import time

import numpy as np
import pytest

from helpers import (brute_force_divergence, exhaustive_mos,
                     exhaustive_ranksum_p, gait_like_velocity,
                     shuffle_ranksum_p)
from softgait.analysis import compare_reports
from softgait.cli import main
from softgait.config import RunConfig
from softgait.plant import generate_trial, ground_deflection
from softgait.signals import TimeSeries, time_normalize
from softgait.stability.balance import (mos_ap, mos_ml,
                                        pendulum_eigenfrequency, xcom)
from softgait.stability.embedding import (EmbeddingParams, ami_delay,
                                          delay_embed, fnn_dimension)
from softgait.stability.lyapunov import (rosenstein_divergence,
                                         windowed_lyapunov)
from softgait.stability.stats import delta_lambda, wilcoxon_ranksum
from softgait.stiffness import (average_cycle, prosthesis_cycles,
                                quasi_stiffness)


def _verdict(n: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {description}")
    assert ok, f"criterion {n} failed: {description}"


def _stiffness_profile(mode: str, K_d: float, seed: int = 0):
    """Closed-loop 60-stride trial and its quasi-stiffness profile."""
    spec = RunConfig(mode=mode, K_d=K_d, n_strides=60,
                     seed=seed).to_trial_spec()
    rec = generate_trial(spec)
    events = rec.events_left[10:]   # drop the estimator's transient
    cycles = prosthesis_cycles(TimeSeries(rec.prosthesis["q"], rec.rate),
                               TimeSeries(rec.prosthesis["M"], rec.rate),
                               events)
    return quasi_stiffness(average_cycle(cycles))


@pytest.fixture(scope="module")
def stiffness_profiles():
    profiles = {}
    runtimes = {}
    for K in (10.0, 15.0, 20.0):
        t0 = time.perf_counter()
        profiles[K] = _stiffness_profile("AC", K)
        runtimes[K] = time.perf_counter() - t0
    t0 = time.perf_counter()
    profiles["TC"] = _stiffness_profile("TC", 15.0)
    runtimes["TC"] = time.perf_counter() - t0
    return profiles, runtimes


def test_criterion_1_admittance_stiffness_emulation(stiffness_profiles):
    profiles, runtimes = stiffness_profiles
    ok = True
    for K in (10.0, 15.0, 20.0):
        terminal = profiles[K].terminal_value(60.0)
        ok &= abs(terminal - K) <= 0.10 * K
        ok &= runtimes[K] < 10.0
    s10 = profiles[10.0].stiffness
    s15 = profiles[15.0].stiffness
    s20 = profiles[20.0].stiffness
    valid = np.isfinite(s10) & np.isfinite(s15) & np.isfinite(s20)
    ok &= bool(np.all(s10[valid] < s15[valid]))
    ok &= bool(np.all(s15[valid] < s20[valid]))
    _verdict(1, "AC emulates K_d within 10% by 60% stance, profiles "
                "strictly ordered over 20-85% stance, < 10 s per condition",
             ok)


def test_criterion_2_tc_baseline_contrast(stiffness_profiles):
    profiles, _ = stiffness_profiles
    tc = profiles["TC"]
    ac20_terminal = profiles[20.0].terminal_value(60.0)
    tc_terminal = abs(tc.terminal_value(60.0))
    ok = ac20_terminal >= 3.0 * tc_terminal
    # near-constant through mid/terminal stance, well below every AC level
    mid = (tc.stance_percent >= 40.0) & (tc.stance_percent <= 80.0)
    mid_vals = tc.stiffness[mid]
    ok &= bool(np.ptp(mid_vals) < 4.0)
    ok &= bool(np.nanmax(np.abs(mid_vals)) < 8.0)
    _verdict(2, "TC quasi-stiffness near-constant and well below AC; "
                "AC-20 terminal >= 3x TC terminal", ok)


def test_criterion_3_rosenstein_correctness():
    t0 = time.perf_counter()
    # toy attractor: smooth random closed curve, 200 points
    rng = np.random.default_rng(0)
    s = np.arange(200)
    pts = np.zeros((200, 3))
    for d in range(3):
        for h in range(1, 5):
            pts[:, d] += rng.normal() * np.sin(
                2 * np.pi * h * s / 200 + rng.uniform(0, 2 * np.pi))
    pts += 0.01 * rng.normal(size=pts.shape)
    res = rosenstein_divergence(pts, samples_per_stride=10)
    oracle = brute_force_divergence(pts, 10)
    ok = bool(np.max(np.abs(res.curve - oracle)) < 1e-12)

    # noiseless periodic trial: jitter and noise off, one mid-trial stride
    # waveform repeated exactly (simulation floats carry ~1e-12 stride-to-
    # stride jitter, so exact periodicity is imposed by tiling)
    spec = RunConfig(mode="TC", n_strides=40, seed=0, period_jitter=0.0,
                     amplitude_jitter=0.0, noise_mm=0.0).to_trial_spec()
    rec = generate_trial(spec)
    com_ml = np.mean([rec.markers[mk][:, 0] for mk in
                      ("LASI", "RASI", "LPSI", "RPSI")], axis=0)
    vel = np.gradient(com_ml, 1.0 / rec.rate)
    one_stride = time_normalize(TimeSeries(vel, rec.rate),
                                rec.events_left[20:22], 1, 100)
    periodic = TimeSeries(np.tile(one_stride.samples, 30), 100.0)
    res = rosenstein_divergence(
        delay_embed(periodic, EmbeddingParams(tau=10, dim=5)),
        samples_per_stride=100)
    ok &= abs(res.lambda_short) < 0.05
    ok &= abs(res.lambda_long) < 0.01
    ok &= (time.perf_counter() - t0) < 5.0
    _verdict(3, "divergence curve matches brute-force oracle to 1e-12; "
                "periodic trial gives |lambda_S| < 0.05, |lambda_L| < 0.01 "
                "per stride in < 5 s", ok)


def test_criterion_4_embedding_parameter_ranges():
    axes = ("ML", "AP", "VT")
    hits = 0
    for seed in range(50):
        ts = gait_like_velocity(axes[seed % 3], seed)
        tau = ami_delay(ts, max_lag=30)
        dim, _ = fnn_dimension(ts, tau, max_dim=8)
        if 5 <= tau <= 12 and 2 <= dim <= 5:
            hits += 1
    ok = hits >= 45
    _verdict(4, f"AMI tau in [5, 12] and FNN dim in [2, 5] for {hits}/50 "
                "seeded gait-like trials (>= 45 required)", ok)


def test_criterion_5_mos_oracle_equivalence():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 400
        xc = TimeSeries(rng.normal(size=n) * 25.0, 100.0)
        cop = rng.normal(size=n) * 30.0
        stance = rng.random(n) < 0.6
        events = np.sort(rng.choice(np.arange(1, n - 1), size=6,
                                    replace=False))
        ml = mos_ml(xc, cop, stance, events).per_cycle.tolist()
        ap = mos_ap(xc, cop, stance, events).per_cycle.tolist()
        ok &= ml == exhaustive_mos(xc.samples, cop, stance, events, "min")
        ok &= ap == exhaustive_mos(xc.samples, cop, stance, events, "max")
    com = {a: TimeSeries(np.full(20, 7.0), 100.0)
           for a in ("ML", "AP", "VT")}
    vel = {a: ts.with_samples(np.zeros(20)) for a, ts in com.items()}
    still = xcom(com, vel, 0.97)
    ok &= bool(np.array_equal(still["ML"].samples, com["ML"].samples))
    ok &= bool(np.array_equal(still["AP"].samples, com["AP"].samples))
    ok &= abs(pendulum_eigenfrequency(0.97) - 3.180) <= 0.001
    _verdict(5, "mos_ml/mos_ap equal the exhaustive frame scan; XcoM at "
                "zero velocity equals CoM; omega0(0.97 m) = 3.180 +- 0.001",
             ok)


def test_criterion_6_windowing_contract():
    rng = np.random.default_rng(0)
    n_strides = 175
    gaps = rng.integers(140, 155, size=n_strides)
    events = np.concatenate(([0], np.cumsum(gaps)))
    n = events[-1] + 1
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / 147.0) + 0.3 * np.sin(6 * np.pi * t / 147.0) \
        + 0.05 * rng.standard_normal(n)
    series = TimeSeries(x, 100.0)
    res = windowed_lyapunov(series, events, window_strides=150,
                            n_windows=25, points_per_window=15000,
                            params=EmbeddingParams(tau=10, dim=3))
    ok = len(res.per_window_short) == 25
    ok &= len(res.per_window_long) == 25
    # per-window normalization: 150 strides onto 15000 points
    first_window = time_normalize(series, events[:151], 150, 15000)
    ok &= len(first_window) == 15000
    ok &= first_window.sample_rate == 100.0   # points per stride
    ok &= len(res.mean_curve) == 10 * 100 + 1
    # too few strides for the full window set must be rejected, not padded
    try:
        windowed_lyapunov(series, events[:171], window_strides=150,
                          n_windows=25, points_per_window=15000,
                          params=EmbeddingParams(tau=10, dim=3))
        ok = False
    except ValueError:
        pass
    _verdict(6, "175 analyzed strides -> exactly 25 overlapping 150-stride "
                "windows of 15000 points each", ok)


def test_criterion_7_ground_compliance():
    ok = abs(ground_deflection(630.0, 63.0) - 10.0) <= 0.5
    ok &= abs(ground_deflection(500.0, 25.0) - 20.0) <= 1.0
    # whole-trial wiring: the heel marker sinks by F/k_g, so the rigid and
    # compliant trials differ by a deflection that scales as 1/k_g
    base = dict(mode="TC", n_strides=8, seed=2, noise_mm=0.0)
    rigid = generate_trial(RunConfig(**base).to_trial_spec())
    soft63 = generate_trial(RunConfig(
        ground_stiffness=63.0, **base).to_trial_spec())
    soft25 = generate_trial(RunConfig(
        ground_stiffness=25.0, **base).to_trial_spec())
    heel = lambda rec: rec.markers["LHEEL"][:, 2]
    d63 = np.max(heel(rigid) - heel(soft63))
    d25 = np.max(heel(rigid) - heel(soft25))
    peak_force = np.max(rigid.cop_left[:, 2])
    ok &= abs(d63 - peak_force / 63.0) <= 0.05 * (peak_force / 63.0)
    ok &= abs(d25 - peak_force / 25.0) <= 0.05 * (peak_force / 25.0)
    ok &= abs(d25 / d63 - 63.0 / 25.0) <= 0.05 * (63.0 / 25.0)
    _verdict(7, "vertical deflection = F/k_g (10 mm at 630 N / 63 kN/m, "
                "20 mm at 500 N / 25 kN/m) and scales as 1/k_g in trials",
             ok)


def test_criterion_8_statistical_machinery():
    ok = True
    rng = np.random.default_rng(0)
    for n1, n2 in ((3, 4), (5, 5), (8, 8), (8, 6), (2, 8)):
        a = rng.normal(size=n1)
        b = rng.normal(loc=0.6, size=n2)
        p, _ = wilcoxon_ranksum(a, b)
        ok &= abs(p - exhaustive_ranksum_p(a, b)) < 1e-12
    a = rng.normal(size=100)
    b = rng.normal(loc=0.3, size=100)
    p, _ = wilcoxon_ranksum(a, b)
    p_perm = shuffle_ranksum_p(a, b, 100_000, seed=7)
    ok &= abs(p - p_perm) < 0.005
    _verdict(8, "rank-sum test matches the exhaustive permutation oracle "
                "exactly for n <= 8 and a 1e5-shuffle test within 0.005 at "
                "n = 100", ok)


def test_criterion_9_determinism(tmp_path):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(
        {"mode": "AC", "K_d": 15.0, "n_strides": 40, "seed": 3}))
    base_cfg = tmp_path / "base.json"
    base_cfg.write_text(json.dumps({"mode": "TC", "n_strides": 40,
                                    "seed": 3}))
    analysis_cfg = tmp_path / "analysis.json"
    analysis_cfg.write_text(json.dumps({
        "exclude_strides": 5, "window_strides": 20, "n_windows": 5,
        "points_per_window": 2000,
        "embedding_overrides": {"ML": [10, 4], "AP": [10, 4],
                                "VT": [10, 4]}}))

    def full_run(tag):
        root = tmp_path / tag
        for name, cfg in (("cand", run_cfg), ("base", base_cfg)):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(root / f"rec_{name}")]) == 0
            assert main(["analyze", str(root / f"rec_{name}"),
                         "--config", str(analysis_cfg),
                         "--out", str(root / f"out_{name}")]) == 0
        assert main(["compare", str(root / "out_cand" / "report.json"),
                     "--baseline", str(root / "out_base" / "report.json"),
                     "--out", str(root / "comparison.json")]) == 0
        return root

    r1 = full_run("run1")
    r2 = full_run("run2")
    ok = True
    for rel in ("out_cand/report.json", "out_base/report.json",
                "comparison.json"):
        ok &= (r1 / rel).read_bytes() == (r2 / rel).read_bytes()
    _verdict(9, "simulate -> analyze -> compare with a fixed seed yields "
                "byte-identical reports across two executions", ok)


def test_criterion_10_delta_lambda_bookkeeping():
    ok = abs(delta_lambda(8.30, 7.13) - 1.17) < 1e-9
    axes = ("ML", "AP", "VT")

    def report(lam_s, lam_l, mos_vals):
        return {
            "meta": {},
            "lyapunov": {a: {"short": {"mean": lam_s, "sd": 0.0},
                             "long": {"mean": lam_l, "sd": 0.0}}
                         for a in axes},
            "mos": {side: {d: {"mean": float(np.mean(mos_vals)), "sd": 0.0,
                               "per_cycle": list(mos_vals),
                               "skipped_cycles": []}
                           for d in ("ML", "AP")}
                    for side in ("left", "right")},
        }

    rng = np.random.default_rng(0)
    base = report(7.13, 0.71, rng.normal(40.0, 2.0, 20))
    worse = report(8.30, 0.80, rng.normal(40.0, 2.0, 20))
    better = report(6.50, 0.60, rng.normal(40.0, 2.0, 20))
    out = compare_reports(base, {"worse": worse, "better": better})
    w = out["candidates"]["worse"]["delta_lambda"]["ML"]["short"]
    b = out["candidates"]["better"]["delta_lambda"]["ML"]["short"]
    ok &= abs(w["delta"] - 1.17) < 1e-9 and w["improved"] is False
    ok &= b["delta"] < 0 and b["improved"] is True
    _verdict(10, "7.13 -> 8.30 reports delta lambda_S = +1.17 and negative "
                 "deltas mark improved stability", ok)
