"""Acceptance criteria, one test per criterion, each printing PASS/FAIL."""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hrrkit.evaluate import Scenario, ScoreTable, Subject, run_scenario
from hrrkit.config import PipelineConfig
from hrrkit.hr_estimate import FLAG_CARRY, PeakTrain, count_hr, detect_peaks
from hrrkit.pipeline import estimate_trace
from hrrkit.preprocess import PASS_HIGH_HZ, PASS_LOW_HZ, bandpass
from hrrkit.radar import RadarConfig, Target, TargetScene, phase_to_displacement, simulate_frames, track_target
from hrrkit.signal_model import (
    ChestMotionTrace,
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    noise_std_for_snr,
    synthesize_trace,
)
from hrrkit.vmd import energy_loss, mode_correlation_max, select_alpha, vmd_decompose

from conftest import tone

FS = 100.0


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number:02d}] FAIL - {description}")
        raise
    print(f"[ACCEPTANCE {number:02d}] PASS - {description}")


@pytest.fixture(scope="module")
def recovery_run():
    """Criterion-1 scenario, shared with the structural checks."""
    resp = RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04))
    heart = HeartbeatModel(
        ExponentialRecovery(152.0, 120.0, 30.0), 0.15, WaveformShape.SINUSOID
    )
    clean = synthesize_trace(resp, heart, 0.0, FS, 66.0, 0)
    noise_std = float(np.sqrt(np.mean(clean.samples**2))) * 10 ** (-15 / 20)
    trace = synthesize_trace(resp, heart, noise_std, FS, 66.0, 1)
    start = time.perf_counter()
    series, report = estimate_trace(trace)
    elapsed = time.perf_counter() - start
    return trace, series, report, elapsed


def test_criterion_01_end_to_end_recovery(recovery_run):
    with criterion(1, "synthetic recovery at 15 dB SNR: mean dHR <= 3.5 bpm, <= 60 s"):
        trace, series, report, elapsed = recovery_run
        truth = trace.ground_truth.heartbeat.rate_trajectory(series.times)
        mean_err = float(np.mean(np.abs(truth - series.hr_bpm)))
        assert mean_err <= 3.5, f"mean dHR {mean_err:.2f} bpm"
        assert series.times[-1] >= 60.0
        assert elapsed <= 60.0, f"runtime {elapsed:.1f} s"


def test_criterion_02_harmonic_coincidence_stress():
    with criterion(2, "HR sweep through 2x and 3x resp: mean <= 6 bpm, max <= 20 bpm"):
        resp = RespirationModel(0.5, (1.0, 0.25, 0.1))
        heart = HeartbeatModel(LinearRamp(100.0, 55.0, 60.0), 0.15, WaveformShape.SINUSOID)
        clean = synthesize_trace(resp, heart, 0.0, FS, 66.0, 0)
        noise_std = float(np.sqrt(np.mean(clean.samples**2))) * 10 ** (-20 / 20)
        for seed in (0, 1):
            trace = synthesize_trace(resp, heart, noise_std, FS, 66.0, seed)
            series, _ = estimate_trace(trace)
            truth = heart.rate_trajectory(series.times)
            err = np.abs(truth - series.hr_bpm)
            assert float(np.mean(err)) <= 6.0, f"seed {seed}: mean {np.mean(err):.2f}"
            assert float(np.max(err)) <= 20.0, f"seed {seed}: max {np.max(err):.2f}"
            for res in series.window_results.values():
                n_hb = sum(1 for row in res.mode_table if row["label"] == "heartbeat")
                assert n_hb <= 1
                if res.status in ("ok", "gates_relaxed") and res.peaks is not None:
                    assert n_hb == 1


@pytest.mark.xfail(
    strict=True,
    reason="open item 3: from about 25 s the estimate locks onto the 2x "
    "respiration harmonic (60 bpm) while the truth falls to 55 bpm",
)
def test_criterion_02_harmonic_coincidence_seed_133():
    # The harmonic_coincidence evaluation scene (20 dB) at its fourth seed.
    resp = RespirationModel(0.5, (1.0, 0.25, 0.1))
    heart = HeartbeatModel(LinearRamp(100.0, 55.0, 60.0), 0.15, WaveformShape.SINUSOID)
    noise_std = noise_std_for_snr(resp, heart, 20.0, FS, 66.0)
    series, _ = estimate_trace(synthesize_trace(resp, heart, noise_std, FS, 66.0, 133))
    err = np.abs(heart.rate_trajectory(series.times) - series.hr_bpm)
    assert float(np.mean(err)) <= 6.0, f"mean {np.mean(err):.2f}"
    assert float(np.max(err)) <= 20.0, f"max {np.max(err):.2f}"


def test_criterion_03_vmd_oracle_equivalence():
    with criterion(3, "tone mixtures: omega within 0.05 Hz, corr >= 0.99, oracles to 1e-12"):
        fs = 20.0
        duration = 38.4
        mixtures = [
            ((0.35, 1.5), (1.0, 0.7)),
            ((0.3, 2.9), (1.0, 0.5)),
            ((0.35, 1.2, 2.6), (1.0, 0.6, 0.4)),
            ((0.5, 1.4, 2.8), (1.0, 0.55, 0.45)),
        ]
        rng = np.random.default_rng(7)
        for freqs, amps in mixtures:
            phases = rng.uniform(0, 2 * np.pi, len(freqs))
            comps = [tone(f, fs, duration, amp=a, phase=p)
                     for f, a, p in zip(freqs, amps, phases)]
            signal = np.sum(comps, axis=0)
            ms = select_alpha(signal, fs, PipelineConfig(k_modes=len(freqs))).modes
            for f, comp in zip(freqs, comps):
                k = int(np.argmin(np.abs(ms.center_freqs - f)))
                assert abs(ms.center_freqs[k] - f) <= 0.05
                assert abs(np.corrcoef(ms.modes[k], comp)[0, 1]) >= 0.99

            # definitional brute-force oracles
            u = ms.modes
            r_oracle = 0.0
            for i in range(len(u)):
                for j in range(i + 1, len(u)):
                    di, dj = u[i].var(), u[j].var()
                    if di < 1e-10 * ms.input_signal.var() or dj < 1e-10 * ms.input_signal.var():
                        continue
                    cov = np.mean(u[i] * u[j]) - u[i].mean() * u[j].mean()
                    r_oracle = max(r_oracle, abs(cov) / math.sqrt(di * dj))
            assert abs(mode_correlation_max(ms) - r_oracle) <= 1e-12
            resid = ms.input_signal - u.sum(axis=0)
            p_oracle = float(np.dot(resid, resid) / np.dot(ms.input_signal, ms.input_signal))
            assert abs(energy_loss(ms) - p_oracle) <= 1e-12


def test_criterion_04_gate_soundness_randomized():
    with criterion(4, "100 randomized select_alpha runs all pass r<=0.2, p<=1e-4"):
        fs = 20.0
        t = np.arange(round(38.4 * fs)) / fs
        cfg = PipelineConfig()
        assert cfg.mu1 == 0.2 and cfg.mu2 == 1e-4
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            n_tones = int(rng.integers(2, 4))
            while True:
                freqs = np.sort(rng.uniform(0.3, 3.0, n_tones))
                if n_tones == 1 or np.all(np.diff(freqs) >= 0.45):
                    break
            amps = rng.uniform(0.3, 1.0, n_tones)
            phases = rng.uniform(0, 2 * np.pi, n_tones)
            signal = np.sum(
                [a * np.cos(2 * np.pi * f * t + p) for f, a, p in zip(freqs, amps, phases)],
                axis=0,
            )
            search = select_alpha(signal, fs, PipelineConfig(k_modes=n_tones))
            assert search.feasible
            ms = search.modes
            assert mode_correlation_max(ms) <= cfg.mu1
            assert energy_loss(ms) <= cfg.mu2
        assert not select_alpha(
            np.sum([tone(0.4, fs, 38.4), tone(1.6, fs, 38.4)], axis=0),
            fs, PipelineConfig(k_modes=2, mu2=0.0),
        ).feasible


def test_criterion_05_monotone_alpha_diagnostics():
    with criterion(5, "alpha sweep: p non-decreasing, r_max non-increasing (<=5% violations)"):
        fs = 20.0
        signal = tone(0.35, fs, 38.4, phase=0.3) + tone(1.5, fs, 38.4, amp=0.7, phase=1.1)
        alphas = np.geomspace(10.0, 8000.0, 41)
        r_vals, p_vals = [], []
        for a in alphas:
            ms = vmd_decompose(signal, fs, 2, float(a))
            r_vals.append(mode_correlation_max(ms))
            p_vals.append(energy_loss(ms))
        n_pairs = len(alphas) - 1
        assert int(np.sum(np.diff(p_vals) < 0)) <= 0.05 * n_pairs
        assert int(np.sum(np.diff(r_vals) > 0)) <= 0.05 * n_pairs


def test_criterion_06_radar_round_trip_and_stitching_invariance():
    with criterion(6, "noiseless round trip <= 2% RMS; injected bin switch shifts HR by 0"):
        cfg = RadarConfig()
        resp = RespirationModel(0.3, (0.4,))
        heart = HeartbeatModel(ConstantRate(100.0), 0.1, WaveformShape.SINUSOID)
        motion = synthesize_trace(resp, heart, 0.0, FS, 30.0, 0)
        cube = simulate_frames(cfg, TargetScene((Target(1.0, motion),)), 30.0, 0)
        rec = phase_to_displacement(track_target(cube, 1.0), cfg.wavelength)
        a = motion.samples - motion.samples.mean()
        b = rec.samples - rec.samples.mean()
        rms = math.sqrt(np.mean((a - b) ** 2) / np.mean(a**2))
        assert rms <= 0.02, f"round-trip RMS {rms:.4f}"

        resp2 = RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04))
        heart2 = HeartbeatModel(
            ExponentialRecovery(152.0, 120.0, 30.0), 0.15, WaveformShape.SINUSOID
        )
        chest = synthesize_trace(resp2, heart2, 0.0, FS, 66.0, 0)
        cube_a = simulate_frames(cfg, TargetScene((Target(1.0, chest),)), 66.0, 0)
        rec_a = phase_to_displacement(track_target(cube_a, 1.0), cfg.wavelength)
        base = 1.0 + cfg.bin_size * 0.45  # bin switches as the chest moves
        cube_b = simulate_frames(
            cfg, TargetScene((Target(base, chest, drift=0.0004),)), 66.0, 0
        )
        seq_b = track_target(cube_b, base)
        assert len(np.unique(seq_b.source_bins)) >= 2, "no bin switch injected"
        rec_b = phase_to_displacement(seq_b, cfg.wavelength)
        rec_a.ground_truth = rec_b.ground_truth = chest.ground_truth
        series_a, _ = estimate_trace(rec_a)
        series_b, _ = estimate_trace(rec_b)
        assert np.array_equal(series_a.times, series_b.times)
        assert float(np.max(np.abs(series_a.hr_bpm - series_b.hr_bpm))) == 0.0


def test_criterion_07_peak_counting_exactness():
    with criterion(7, "uniform trains 60-220 bpm exact; detector honors 0.5 floor, 0.27 s gap"):
        for rate in np.arange(60.0, 220.1, 7.3):
            spacing = 60.0 / rate
            train = PeakTrain(np.arange(120) * spacing)
            for l_min in (3.0, 4.5, 6.0, 7.0):
                for t in (30.0, 41.234, 55.0):
                    est = count_hr(train, t, l_min)
                    assert est.hr_bpm == pytest.approx(rate, rel=1e-12)

        x = np.zeros(800)
        x[100] = 1.0    # kept
        x[200] = 0.49   # below the amplitude floor
        x[300] = 0.51   # kept (floor is inclusive of 0.5)
        x[320] = 0.52   # 0.2 s after: suppressed pair, keep higher
        train = detect_peaks(x, FS)
        assert np.array_equal(train.peak_times, np.array([1.0, 3.2]))
        x2 = np.zeros(800)
        x2[100] = 0.9
        x2[127] = 0.8   # exactly 0.27 s away: allowed
        train2 = detect_peaks(x2, FS)
        assert np.array_equal(train2.peak_times, np.array([1.0, 1.27]))


def test_criterion_08_filter_spec():
    with criterion(8, "band-pass: >=20 dB at 0.05/5.1 Hz, <=1 dB at 1 Hz, zero lag"):
        assert (PASS_LOW_HZ, PASS_HIGH_HZ) == (0.2, 3.4)
        mid = slice(round(20 * FS), round(100 * FS))

        def response_db(freq):
            x = tone(freq, FS, 120.0)
            y = bandpass(ChestMotionTrace(x, FS)).samples
            rin = math.sqrt(np.mean(x[mid] ** 2))
            rout = math.sqrt(np.mean(y[mid] ** 2))
            return 20.0 * math.log10(rout / rin)

        assert response_db(0.05) <= -20.0
        assert response_db(5.1) <= -20.0
        assert abs(response_db(1.0)) <= 1.0

        x = tone(1.0, FS, 60.0)
        y = bandpass(ChestMotionTrace(x, FS)).samples
        seg = slice(round(5 * FS), round(55 * FS))
        xc = [float(np.dot(y[seg.start + l : seg.stop + l], x[seg])) for l in range(-5, 6)]
        assert int(np.argmax(xc)) - 5 == 0


def test_criterion_09_composite_window_structure(recovery_run):
    with criterion(9, "W_b inside W_a at every instant; W_a advances per the stride rule"):
        _, series, _, _ = recovery_run
        cfg = PipelineConfig()
        assert cfg.stride == cfg.l_b_max
        assert cfg.l_a == 2.0 * cfg.l_b_max
        k_max = math.floor((66.0 - cfg.l_a) / cfg.stride)
        assert any(p.wa_index > 0 for p in series.points)
        for p in series.points:
            if p.flag == FLAG_CARRY:
                continue
            wa_start = p.wa_index * cfg.stride
            assert wa_start <= p.wb_start <= p.wb_end <= wa_start + cfg.l_a
            assert p.wb_end <= p.time + 1e-9
            advanceable = p.wb_start >= wa_start + cfg.stride and p.wa_index < k_max
            assert not advanceable, f"W_a lagged behind at t={p.time}"


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "identical seeds give bit-identical score tables and archives"):
        scenario = Scenario(
            "repro",
            (Subject(
                RespirationModel(0.3, (1.0,)),
                HeartbeatModel(ConstantRate(120.0), 0.15, WaveformShape.SINUSOID),
            ),),
            snr_db=18.0,
            repetitions=3,
            seed_base=900,
        )
        dirs = (tmp_path / "a", tmp_path / "b")
        tables = [
            ScoreTable(rows=run_scenario(scenario, archive_dir=d)) for d in dirs
        ]
        assert tables[0].to_csv() == tables[1].to_csv()
        assert tables[0].summary_csv() == tables[1].summary_csv()
        files = [sorted(p for p in d.rglob("*") if p.is_file()) for d in dirs]
        assert [p.relative_to(dirs[0]) for p in files[0]] == [
            p.relative_to(dirs[1]) for p in files[1]
        ]
        for pa, pb in zip(*files):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
