import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from hrrkit.signal_model import (
    ChestMotionTrace,
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    synthesize_trace,
)


def dominant_freqs(x, fs, n_peaks):
    spec = np.abs(np.fft.rfft(x))
    spec[0] = 0.0
    freqs = np.fft.rfftfreq(len(x), d=1.0 / fs)
    order = np.argsort(spec)[::-1]
    found = []
    for k in order:
        f = freqs[k]
        if all(abs(f - g) > 0.1 for g in found):
            found.append(f)
        if len(found) == n_peaks:
            break
    return sorted(found)


class TestExponentialRecovery:
    def test_closed_form_at_60s(self):
        traj = ExponentialRecovery(152.0, 120.0, 30.0)
        expected = 120.0 + 32.0 * math.exp(-2.0)  # ~124.33, echoes a 32 bpm drop
        assert traj(60.0) == pytest.approx(expected, abs=1e-12)

    def test_flat_degenerate_case(self):
        traj = ExponentialRecovery(120.0, 120.0, 5.0)
        t = np.linspace(0.0, 100.0, 50)
        assert np.all(traj(t) == 120.0)

    def test_boundary_value(self):
        assert ExponentialRecovery(160.0, 100.0, 30.0)(0.0) == pytest.approx(160.0)

    def test_rejects_nonpositive_time_constant(self):
        with pytest.raises(ValueError, match="time_constant"):
            ExponentialRecovery(150.0, 120.0, 0.0)

    def test_rejects_inverted_rates(self):
        with pytest.raises(ValueError, match="hr_initial"):
            ExponentialRecovery(100.0, 120.0, 30.0)


class TestLinearRamp:
    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ValueError, match="t_end"):
            LinearRamp(100.0, 55.0, 0.0)


class TestModelInvariants:
    def test_respiration_floor(self):
        with pytest.raises(ValueError, match="fundamental_freq"):
            RespirationModel(0.1, (1.0,))

    def test_fundamental_amplitude_positive(self):
        with pytest.raises(ValueError, match="fundamental"):
            RespirationModel(0.3, (0.0, 0.5))

    def test_at_most_five_upper_harmonics(self):
        RespirationModel(0.3, (1.0, 0.5, 0.4, 0.3, 0.2, 0.1))  # five: fine
        with pytest.raises(ValueError, match="harmonics"):
            RespirationModel(0.3, (1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05))

    def test_heartbeat_amplitude_positive(self):
        with pytest.raises(ValueError, match="amplitude"):
            HeartbeatModel(ConstantRate(100.0), 0.0)

    def test_rate_bounds_enforced_at_synthesis(self):
        heart = HeartbeatModel(ConstantRate(230.0), 0.1)
        with pytest.raises(ValueError, match="rate_trajectory"):
            synthesize_trace(None, heart, 0.0, 100.0, 10.0, 0)

    def test_heart_must_be_smaller_than_respiration(self):
        resp = RespirationModel(0.3, (0.5,))
        heart = HeartbeatModel(ConstantRate(100.0), 0.6)
        with pytest.raises(ValueError, match="smaller"):
            synthesize_trace(resp, heart, 0.0, 100.0, 10.0, 0)

    def test_trace_sample_rate_floor(self):
        with pytest.raises(ValueError, match="sample_rate"):
            ChestMotionTrace(np.zeros(100), 10.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_trace_sample_rate_is_finite(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be finite"):
            ChestMotionTrace(np.zeros(100), rate)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda v: RespirationModel(v, (1.0,)), "fundamental_freq"),
            (lambda v: RespirationModel(0.3, (v,)), "fundamental amplitude"),
            (lambda v: RespirationModel(0.3, (1.0, v)), "finite"),
            (lambda v: RespirationModel(0.3, (1.0,), v), "finite"),
            (lambda v: HeartbeatModel(ConstantRate(100.0), v), "amplitude"),
            (lambda v: ExponentialRecovery(150.0, 120.0, v), "time_constant"),
            (lambda v: LinearRamp(100.0, 55.0, v), "t_end"),
        ],
        ids=["resp_freq", "resp_fundamental", "resp_harmonic", "resp_phase",
             "heart_amplitude", "time_constant", "t_end"],
    )
    def test_non_finite_model_value_rejected(self, build, match, bad):
        with pytest.raises(ValueError, match=match):
            build(bad)

    @pytest.mark.parametrize("trajectory", [ConstantRate(math.nan), LinearRamp(100.0, math.nan, 30.0)])
    def test_non_finite_rate_rejected_at_synthesis(self, trajectory):
        with pytest.raises(ValueError, match="rate_trajectory"):
            synthesize_trace(None, HeartbeatModel(trajectory, 0.1), 0.0, 100.0, 10.0, 0)

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            synthesize_trace(RespirationModel(0.3, (1.0,)), None, noise_std, 100.0, 10.0, 0)


class TestSynthesizeTrace:
    def test_two_pure_tones_peak_where_expected(self):
        resp = RespirationModel(0.3, (1.0,))
        heart = HeartbeatModel(ConstantRate(120.0), 0.1)
        trace = synthesize_trace(resp, heart, 0.0, 100.0, 50.0, 0)
        assert dominant_freqs(trace.samples, 100.0, 2) == pytest.approx(
            [0.3, 2.0], abs=0.02
        )

    def test_instantaneous_frequency_matches_trajectory(self):
        # Oracle: central finite difference of the integrated phase.
        heart = HeartbeatModel(ExponentialRecovery(160.0, 128.0, 30.0), 0.1)
        fs, duration = 100.0, 60.0
        t = np.arange(round(fs * duration)) / fs
        phase = heart.phase(t)
        inst_hz = (phase[2:] - phase[:-2]) / (2.0 / fs) / (2.0 * np.pi)
        expected = np.asarray(heart.rate_trajectory(t[1:-1])) / 60.0
        assert np.max(np.abs(inst_hz - expected)) * 60.0 < 1e-6  # bpm

    def test_four_harmonics_give_five_peaks(self):
        resp = RespirationModel(0.3, (1.0, 0.5, 0.3, 0.2, 0.1))
        trace = synthesize_trace(resp, None, 0.0, 100.0, 60.0, 0)
        got = dominant_freqs(trace.samples, 100.0, 5)
        assert got == pytest.approx([0.3, 0.6, 0.9, 1.2, 1.5], abs=0.02)

    def test_superposition_is_exact(self, resp_full, heart_recovery):
        both = synthesize_trace(resp_full, heart_recovery, 0.0, 100.0, 30.0, 7)
        resp_only = synthesize_trace(resp_full, None, 0.0, 100.0, 30.0, 7)
        heart_only = synthesize_trace(None, heart_recovery, 0.0, 100.0, 30.0, 7)
        assert np.array_equal(both.samples, resp_only.samples + heart_only.samples)

    def test_seeded_determinism(self, resp_full, heart_recovery):
        a = synthesize_trace(resp_full, heart_recovery, 0.2, 100.0, 20.0, 42)
        b = synthesize_trace(resp_full, heart_recovery, 0.2, 100.0, 20.0, 42)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize_trace(resp_full, heart_recovery, 0.2, 100.0, 20.0, 43)
        assert not np.array_equal(a.samples, c.samples)

    def test_parseval_for_disjoint_components(self):
        resp = RespirationModel(0.25, (1.0,))
        heart = HeartbeatModel(ConstantRate(120.0), 0.2)
        fs, duration = 100.0, 40.0
        both = synthesize_trace(resp, heart, 0.0, fs, duration, 0).samples
        r = synthesize_trace(resp, None, 0.0, fs, duration, 0).samples
        h = synthesize_trace(None, heart, 0.0, fs, duration, 0).samples
        e_both = np.dot(both, both)
        cross = abs(e_both - np.dot(r, r) - np.dot(h, h))
        assert cross / e_both < 1e-3

    def test_ground_truth_attached(self, resp_full, heart_recovery):
        trace = synthesize_trace(resp_full, heart_recovery, 0.1, 100.0, 20.0, 3)
        gt = trace.ground_truth
        assert gt.respiration is resp_full
        assert gt.heartbeat is heart_recovery
        assert gt.noise_std == 0.1 and gt.seed == 3
        assert float(gt.heart_rate_at(0.0)) == pytest.approx(152.0)

    def test_trace_length(self):
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 100.0, 12.345, 0)
        assert len(trace.samples) == round(100.0 * 12.345)
        assert trace.duration == pytest.approx(12.345, abs=0.01)


class TestWaveforms:
    def test_pulse_peaks_at_beat_times(self):
        heart = HeartbeatModel(ConstantRate(60.0), 1.0, WaveformShape.PULSE)
        fs = 100.0
        t = np.arange(round(10 * fs)) / fs
        x = heart.waveform(t)
        assert x[0] == pytest.approx(1.0)
        assert x[round(fs)] == pytest.approx(1.0, abs=1e-6)  # beat at t=1 s
        # width 25% of the 1 s beat period: zero outside +-0.125 s
        assert x[round(0.2 * fs)] == 0.0

    def test_beat_times_match_rate_integral(self):
        heart = HeartbeatModel(LinearRamp(120.0, 90.0, 10.0), 1.0)
        beats = heart.beat_times(10.0)
        # beats/s integral of a linear ramp: count over [0, 10] = avg rate * t
        expected_count = (120.0 + 90.0) / 2.0 / 60.0 * 10.0
        assert len(beats) == pytest.approx(expected_count + 1, abs=1.0)
        assert np.all(np.diff(beats) > 0)

    @pytest.mark.parametrize(
        "trajectory", [LinearRamp(120.0, 90.0, 10.0), ExponentialRecovery(152.0, 120.0, 30.0)]
    )
    def test_phase_matches_scipy_cumulative_trapezoid(self, trajectory):
        heart = HeartbeatModel(trajectory, 1.0)
        t = np.arange(6600) / 100.0
        t_fine = np.linspace(t[0], t[-1], (len(t) - 1) * 8 + 1)
        rate = trajectory(t_fine)
        ref = 2.0 * np.pi * cumulative_trapezoid(rate / 60.0, t_fine, initial=0.0)
        assert np.array_equal(heart.phase(t), ref[::8])
