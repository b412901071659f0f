import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.ndimage import uniform_filter1d
from scipy.signal import find_peaks

from hrrkit import hr_estimate
from hrrkit.config import PipelineConfig
from hrrkit.errors import ConfigError, DegradedQualityError, InputError
from hrrkit.hr_estimate import (
    _find_peaks,
    _natural_spline,
    _running_mean,
    FLAG_CARRY,
    HrPoint,
    HrSeries,
    PeakTrain,
    WindowResult,
    adapt_lmin,
    build_report,
    condition_heartbeat,
    count_hr,
    detect_peaks,
    run_composite_windows,
)
from hrrkit.signal_model import (
    ChestMotionTrace,
    HeartbeatModel,
    LinearRamp,
    WaveformShape,
)


FS = 100.0


class TestConditionHeartbeat:
    def test_amplitude_ramp_normalized(self):
        t = np.arange(round(10 * FS)) / FS
        ramp = (1.0 + 4.0 * t / 10.0) * np.sin(2 * np.pi * 1.3 * t)
        normalized = condition_heartbeat(ramp, FS)
        peaks = detect_peaks(normalized, FS)
        idx = (peaks.peak_times * FS).astype(int)
        assert np.all(normalized[idx] >= 0.9)
        assert np.all(normalized[idx] <= 1.1)

    def test_constant_sinusoid_nearly_unchanged(self):
        t = np.arange(round(10 * FS)) / FS
        x = np.sin(2 * np.pi * 1.3 * t)
        y = condition_heartbeat(x, FS)
        mid = slice(round(1 * FS), round(9 * FS))
        assert np.max(np.abs(y[mid] - x[mid])) <= 0.02

    def test_pulse_peaks_align_with_true_beats(self):
        heart = HeartbeatModel(LinearRamp(150.0, 120.0, 10.0), 1.0, WaveformShape.PULSE)
        t = np.arange(round(10 * FS)) / FS
        conditioned = condition_heartbeat(heart.waveform(t), FS)
        train = detect_peaks(conditioned, FS)
        beats = heart.beat_times(10.0)
        assert len(train) >= 18
        for pt in train.peak_times:
            assert np.min(np.abs(beats - pt)) <= 0.05

    def test_zero_signal_degenerate(self):
        assert condition_heartbeat(np.zeros(500), FS) is None

    def test_scale_invariance_of_peak_train(self):
        t = np.arange(round(12 * FS)) / FS
        x = np.sin(2 * np.pi * 2.0 * t) * (1.0 + 0.3 * np.sin(2 * np.pi * 0.2 * t))
        base = detect_peaks(condition_heartbeat(x, FS), FS)
        for c in (0.01, 3.0, 250.0):
            scaled = detect_peaks(condition_heartbeat(c * x, FS), FS)
            assert np.array_equal(scaled.peak_times, base.peak_times)


class TestDetectPeaks:
    def test_unit_sinusoid_counts(self):
        t = np.arange(round(10 * FS)) / FS
        train = detect_peaks(np.sin(2 * np.pi * 1.0 * t - np.pi / 2), FS)
        assert len(train) == 10
        assert np.allclose(np.diff(train.peak_times), 1.0, atol=0.02)

    def test_low_bump_rejected(self):
        x = np.zeros(600)
        x[100] = 1.0
        x[300] = 0.4  # below the 0.5 floor
        x[500] = 0.9
        train = detect_peaks(x, FS)
        assert np.array_equal(train.peak_times, np.array([1.0, 5.0]))

    def test_close_peaks_keep_higher(self):
        x = np.zeros(400)
        x[100] = 0.9
        x[120] = 0.7  # 0.2 s apart: suppressed
        train = detect_peaks(x, FS)
        assert np.array_equal(train.peak_times, np.array([1.0]))

    def test_min_interval_invariant(self):
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(0.0, 0.6, 4000))
        train = detect_peaks(x, FS)
        if len(train) >= 2:
            assert np.diff(train.peak_times).min() >= 0.27 - 1e-9

    def test_peak_train_validation(self):
        with pytest.raises(ValueError, match="closer"):
            PeakTrain(np.array([0.0, 0.1]))


class TestMatchesScipy:
    """The numpy smoother, peak finder and spline reproduce scipy's bit for bit."""

    # Few distinct levels, so plateaus and equal-height peaks are common.
    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.lists(st.integers(min_value=0, max_value=4), max_size=80),
        scale=st.sampled_from([0.25, 1.0, 0.3]),
        height=st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.75, 1.0])),
        distance=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_find_peaks(self, levels, scale, height, distance):
        x = np.asarray(levels, dtype=float) * scale
        ref, _ = find_peaks(x, height=height, distance=distance)
        assert np.array_equal(_find_peaks(x, height=height, distance=distance), ref)

    def test_find_peaks_tie_order(self):
        # Which of two equal maxima closer than ``distance`` survives depends
        # on the order in which ties are visited.
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.integers(0, 3, 120).astype(float)
            distance = int(rng.integers(2, 13))
            ref, _ = find_peaks(x, distance=distance)
            assert np.array_equal(_find_peaks(x, distance=distance), ref)

    def test_detect_peaks_on_noise(self):
        x = np.abs(np.random.default_rng(3).normal(0.0, 0.6, 4000))
        ref, _ = find_peaks(x, height=0.5, distance=27)
        assert np.array_equal(detect_peaks(x, FS).peak_times, ref / FS)

    @pytest.mark.parametrize("size", [1, 3, 13, 59, 301])
    def test_running_mean(self, size):
        x = np.random.default_rng(size).normal(0.0, 10.0, 150)
        ref = uniform_filter1d(x, size=size, mode="nearest")
        assert np.array_equal(_running_mean(x, size), ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_natural_spline(self, seed):
        rng = np.random.default_rng(seed)
        knots = np.cumsum(rng.integers(1, 60, 40))
        values = np.abs(rng.normal(0.0, 1.0, 40))
        at = np.arange(knots[0], knots[-1] + 1)
        ref = CubicSpline(knots, values, bc_type="natural")(at)
        assert np.array_equal(_natural_spline(knots, values, at), ref)

    def test_natural_spline_with_row_swaps(self):
        # Spacings 1, 9, 1, 19: elimination swaps rows where a knot gap
        # exceeds twice the one before it.
        knots = np.array([0, 1, 10, 11, 30])
        values = np.array([0.5, 0.5, 2.0, 0.1, 0.1])
        at = np.arange(31)
        ref = CubicSpline(knots, values, bc_type="natural")(at)
        assert np.array_equal(_natural_spline(knots, values, at), ref)

    def test_condition_heartbeat(self):
        t = np.arange(round(16 * FS)) / FS
        rng = np.random.default_rng(5)
        x = (1.0 + 0.5 * np.sin(2 * np.pi * 0.1 * t)) * np.sin(2 * np.pi * 1.7 * t)
        x += rng.normal(0.0, 0.2, len(t))
        smoothed = uniform_filter1d(x, size=13, mode="nearest")
        magnitude = np.abs(smoothed)
        maxima, _ = find_peaks(magnitude)
        knots = np.concatenate(([0], maxima, [len(x) - 1]))
        values = magnitude[knots]
        values[0], values[-1] = magnitude[maxima[0]], magnitude[maxima[-1]]
        envelope = CubicSpline(knots, values, bc_type="natural")(np.arange(len(x)))
        envelope = np.maximum(envelope, 0.1 * np.median(envelope))
        assert np.array_equal(condition_heartbeat(x, FS), smoothed / envelope)


class TestCountHr:
    def test_uniform_train_exact(self):
        times = np.arange(40) * 0.5  # 120 bpm
        train = PeakTrain(times)
        est = count_hr(train, 19.7, 3.0)
        assert est.hr_bpm == pytest.approx(120.0, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        spacing=st.floats(min_value=60.0 / 220.0 + 0.005, max_value=1.0),
        l_min=st.floats(min_value=1.0, max_value=7.0),
        t_frac=st.floats(min_value=0.6, max_value=1.0),
    )
    # 49 - l_min rounds onto the peak at 48 s, one spacing short of l_min.
    @example(spacing=1.0, l_min=1.0000000000000002, t_frac=1.0)
    def test_uniform_train_exact_property(self, spacing, l_min, t_frac):
        times = np.arange(50) * spacing
        t = times[-1] * t_frac
        if t < l_min + 2 * spacing:
            return
        est = count_hr(PeakTrain(times), t, l_min)
        assert est.hr_bpm == pytest.approx(60.0 / spacing, rel=1e-12)
        assert est.l_b >= l_min

    def test_chirped_train_matches_window_mean_oracle(self):
        heart = HeartbeatModel(LinearRamp(160.0, 140.0, 10.0), 1.0)
        train = PeakTrain(heart.beat_times(10.0))
        est = count_hr(train, 10.0, 4.0)
        oracle = quad(lambda x: 160.0 - 2.0 * x, est.window_start, est.window_end)[0] / est.l_b
        assert est.hr_bpm == pytest.approx(oracle, abs=1.0)

    def test_lmin_larger_than_span(self):
        train = PeakTrain(np.array([0.0, 0.5, 1.0, 1.5]))
        assert count_hr(train, 1.5, 5.0) is None

    def test_fewer_than_two_peaks(self):
        assert count_hr(PeakTrain(np.array([1.0])), 2.0, 5.0) is None


class TestAdaptLmin:
    @pytest.fixture
    def wide_bounds(self, monkeypatch):
        monkeypatch.setattr(hr_estimate, "L_MIN_BOUNDS", (3.0, 8.0))

    def test_ten_beat_target(self, wide_bounds):
        assert adapt_lmin(150.0) == pytest.approx(4.0)

    def test_clamped_high(self, wide_bounds):
        assert adapt_lmin(60.0) == pytest.approx(8.0)  # 600/60 = 10 > 8

    def test_clamped_low(self, wide_bounds):
        assert adapt_lmin(220.0) == pytest.approx(3.0)

    def test_monotone_non_increasing(self):
        values = [adapt_lmin(hr) for hr in np.arange(40.0, 220.0, 5.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def uniform_peak_stage(rate_bpm):
    """Stage stub: a clean uniform beat train inside each window."""

    def stage(segment, fs, t0, prev):
        spacing = 60.0 / rate_bpm
        duration = len(segment) / fs
        first = math.ceil(t0 / spacing) * spacing
        times = np.arange(first, t0 + duration + 1e-9, spacing)
        return WindowResult(t0, PeakTrain(times))

    return stage


class TestCompositeWindows:
    def make_trace(self, duration=66.0):
        return ChestMotionTrace(np.zeros(round(duration * FS)), FS)

    def test_window_geometry_defaults(self):
        cfg = PipelineConfig(l_b_max=8.0)
        assert cfg.stride == 8.0
        assert cfg.l_a == 16.0

    def test_lmin_bounds_validation(self, monkeypatch):
        monkeypatch.setattr(hr_estimate, "L_MIN_BOUNDS", (3.0, 9.0))
        with pytest.raises(ConfigError, match="l_b_max must be >= 9.0 s"):
            PipelineConfig(l_b_max=8.0)

    def test_constant_rate_tracked_exactly(self):
        series = run_composite_windows(
            self.make_trace(), PipelineConfig(), uniform_peak_stage(120.0)
        )
        assert len(series.points) > 50
        assert np.allclose(series.hr_bpm, 120.0, atol=1e-9)

    def test_containment_and_advance_rule(self):
        series = run_composite_windows(
            self.make_trace(), PipelineConfig(), uniform_peak_stage(100.0)
        )
        cfg = PipelineConfig()
        k_max = math.floor((66.0 - cfg.l_a) / cfg.stride)
        for p in series.points:
            if p.flag == FLAG_CARRY:
                continue
            wa_start = p.wa_index * cfg.stride
            assert wa_start <= p.wb_start <= p.wb_end <= wa_start + cfg.l_a
            # minimality: no further advance was possible at this instant
            assert p.wb_start < wa_start + cfg.stride or p.wa_index == k_max

    def test_wa_indices_monotone(self):
        series = run_composite_windows(
            self.make_trace(), PipelineConfig(), uniform_peak_stage(90.0)
        )
        idx = [p.wa_index for p in series.points]
        assert all(a <= b for a, b in zip(idx, idx[1:]))
        assert idx[-1] > 0

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError, match="l_a"):
            run_composite_windows(
                self.make_trace(10.0), PipelineConfig(), uniform_peak_stage(100.0)
            )

    @pytest.mark.parametrize("duration", [59.99, 30.0])
    def test_trace_short_of_report_time_rejected_before_any_window(self, duration):
        def refuse(*args):
            raise AssertionError("a window ran")

        with pytest.raises(InputError, match="recovery report needs HR up to 60 s"):
            run_composite_windows(self.make_trace(duration), PipelineConfig(), refuse)

    def test_trace_reaching_report_time_runs(self):
        series = run_composite_windows(
            self.make_trace(60.0), PipelineConfig(), uniform_peak_stage(100.0)
        )
        assert series.times[-1] == 60.0
        assert build_report(series).hr_at_60s == pytest.approx(100.0)

    def test_series_starting_after_report_time_is_degraded(self):
        # No window before 64 s holds a peak. The second pass's l_min of 6 s
        # puts its first estimate at 71 s, so the report has no HR at 60 s.
        inner = uniform_peak_stage(100.0)

        def late_stage(segment, fs, t0, prev):
            return WindowResult(t0, PeakTrain(np.array([]))) if t0 < 64.0 else inner(
                segment, fs, t0, prev)

        with pytest.raises(DegradedQualityError,
                           match=r"first HR estimate is at 71 s, after the report time 60 s"):
            run_composite_windows(self.make_trace(100.0), PipelineConfig(), late_stage)

    def test_stage_gets_the_placement_before(self):
        seen = []
        inner = uniform_peak_stage(100.0)

        def stage(segment, fs, t0, prev):
            seen.append((t0, prev))
            return inner(segment, fs, t0, prev)

        series = run_composite_windows(self.make_trace(), PipelineConfig(), stage)
        # Once per placement, in order, each after the one before.
        assert [t0 for t0, _ in seen] == [8.0 * k for k in range(len(seen))]
        assert len(seen) == len(series.window_results) > 2
        assert seen[0][1] is None
        for k, (_, prev) in enumerate(seen[1:], start=1):
            assert prev is series.window_results[k - 1]

    def test_carry_forward_flagging(self):
        calls = []

        def flaky_stage(segment, fs, t0, prev):
            calls.append(t0)
            if t0 == 16.0:
                return WindowResult(t0, None, status="no_heartbeat")
            return uniform_peak_stage(110.0)(segment, fs, t0, prev)

        series = run_composite_windows(self.make_trace(), PipelineConfig(), flaky_stage)
        flags = series.flags
        assert FLAG_CARRY in flags
        carried = [p for p in series.points if p.flag == FLAG_CARRY]
        assert all(math.isnan(p.l_b) for p in carried)
        assert all(p.hr_bpm == pytest.approx(110.0, abs=1e-6) for p in carried)

    def test_two_pass_stability(self):
        # the adapted-l_min pass changes each estimate by <= 10 bpm
        def ramp_stage(segment, fs, t0, prev):
            heart = HeartbeatModel(LinearRamp(150.0, 120.0, 66.0), 1.0)
            beats = heart.beat_times(66.0)
            inside = beats[(beats >= t0) & (beats <= t0 + len(segment) / fs)]
            return WindowResult(t0, PeakTrain(inside))

        series = run_composite_windows(self.make_trace(), PipelineConfig(), ramp_stage)
        truth = LinearRamp(150.0, 120.0, 66.0)(series.times)
        assert np.max(np.abs(series.hr_bpm - truth)) <= 10.0
        deltas = [
            abs(p.hr_bpm - p.hr_first_pass)
            for p in series.points
            if not math.isnan(p.hr_first_pass)
        ]
        assert deltas and max(deltas) <= 10.0

    def test_second_pass_starting_before_first(self, monkeypatch):
        # Window 0 has no peaks, so both passes start once W_a advances. The
        # shorter adapted l_min lets the second pass start a step earlier.
        beats = HeartbeatModel(LinearRamp(150.0, 100.0, 66.0), 1.0).beat_times(66.0)

        def late_stage(segment, fs, t0, prev):
            if t0 == 0.0:
                return WindowResult(t0, PeakTrain(np.array([])))
            inside = beats[(beats >= t0) & (beats <= t0 + len(segment) / fs)]
            return WindowResult(t0, PeakTrain(inside))

        cfg = PipelineConfig()
        series = run_composite_windows(self.make_trace(), cfg, late_stage)
        # With l_min pinned at its default, the second pass is the first.
        with monkeypatch.context() as mp:
            mp.setattr(hr_estimate, "L_MIN_BOUNDS", (cfg.l_min, cfg.l_min))
            first_start = run_composite_windows(self.make_trace(), cfg, late_stage).points[0].time
        assert series.points[0].time == 13.0 and first_start == 14.0
        for p in series.points:
            assert math.isnan(p.hr_first_pass) == (p.time < first_start)
        h_start = next(p.hr_first_pass for p in series.points if p.time == first_start)
        assert set(series.flags) == {"ok"}
        for p in series.points:
            h = h_start if p.time < first_start else p.hr_first_pass
            est = count_hr(series.window_results[p.wa_index].peaks, p.time, adapt_lmin(h))
            assert (p.hr_bpm, p.wb_start) == (est.hr_bpm, est.window_start)

    def test_out_of_band_rate_clamped(self):
        series = run_composite_windows(
            self.make_trace(), PipelineConfig(),
            uniform_peak_stage(30.0),  # 2 s spacing: below the 36 bpm floor
        )
        clamped = [p for p in series.points if p.flag == "clamped"]
        assert clamped
        assert all(p.hr_bpm == 36.0 for p in clamped)
        assert np.all(series.hr_bpm >= 36.0) and np.all(series.hr_bpm <= 220.0)


class TestBuildReport:
    def make_series(self, rate=120.0):
        return run_composite_windows(
            ChestMotionTrace(np.zeros(round(66.0 * FS)), FS),
            PipelineConfig(),
            uniform_peak_stage(rate),
        )

    def test_constant_truth_zero_drop(self):
        report = build_report(self.make_series(), truth=lambda t: np.full_like(t, 120.0))
        assert report.hrr_60 == pytest.approx(0.0, abs=1e-9)
        assert report.mean_abs_error == pytest.approx(0.0, abs=1e-9)

    def test_hrr_is_initial_minus_at60(self):
        report = build_report(self.make_series())
        assert report.hrr_60 == pytest.approx(report.initial_hr - report.hr_at_60s)

    def test_mean_error_matches_hand_sum(self):
        series = self.make_series()
        truth = lambda t: np.asarray(t) * 0.1 + 110.0
        report = build_report(series, truth=truth)
        hand = sum(abs(float(truth(p.time)) - p.hr_bpm) for p in series.points) / len(
            series.points
        )
        assert report.mean_abs_error == pytest.approx(hand, abs=1e-12)

    def test_perfect_estimator_reports_32bpm_drop(self):
        # a series that tracks a 152 -> 120 decay over 60 s exactly
        truth = LinearRamp(152.0, 120.0, 60.0)
        points = [
            HrPoint(float(t), float(truth(float(t))), 5.0, "ok", 0, t - 5.0, float(t))
            for t in np.arange(0.0, 66.0, 1.0)
        ]
        series = HrSeries(points=points, window_results={})
        report = build_report(series, truth=truth)
        assert report.initial_hr == pytest.approx(152.0)
        assert report.hr_at_60s == pytest.approx(120.0)
        assert report.hrr_60 == pytest.approx(32.0)
        assert report.mean_abs_error == pytest.approx(0.0, abs=1e-12)

    def test_short_series_rejected(self):
        # run_composite_windows refuses a trace this short, so the series is
        # cut by hand: it ends at 30 s, with no point near 60 s.
        series = self.make_series()
        series.points = [p for p in series.points if p.time <= 30.0]
        with pytest.raises(ValueError, match="60"):
            build_report(series)
