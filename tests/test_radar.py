import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrrkit import radar
from hrrkit.errors import InputError, TrackingLostError
from hrrkit.io import read_cube, write_cube
from hrrkit.radar import (
    _FRAME_BLOCK,
    _SNR_PEAK_FACTOR,
    PhaseSequence,
    RadarConfig,
    RadarCube,
    Target,
    TargetScene,
    _peak_chain,
    _row_medians,
    _snr_floor,
    phase_to_displacement,
    simulate_frames,
    stitch_phase,
    track_target,
)
from hrrkit.signal_model import (
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    RespirationModel,
    synthesize_trace,
)

CFG_50MM = RadarConfig(bandwidth=299792458.0 / (2 * 0.05))  # bin size exactly 0.05 m


def full_size_tones(cfg, scene, duration):
    """The noiseless tone sum, one exponential per sample (test-only)."""
    n = cfg.samples_per_chirp
    frame_times = np.arange(round(duration * cfg.frame_rate)) / cfg.frame_rate
    fast_t = (np.arange(n) - (n - 1) / 2.0) * (cfg.chirp_duration / n)
    slope = cfg.bandwidth / cfg.chirp_duration
    iq = np.zeros((len(frame_times), n), dtype=complex)
    for tgt in scene.targets:
        ranges = target_ranges(tgt, frame_times)
        beat = 2.0 * slope * ranges / 299792458.0
        phase0 = 4.0 * np.pi * ranges / cfg.wavelength
        iq += np.exp(1j * (2.0 * np.pi * beat[:, None] * fast_t[None, :] + phase0[:, None]))
    return iq


def extended_precision_tones(cfg, scene, duration):
    """The noiseless tone sum in long double, from the same float64 ranges (test-only)."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double has no more precision than float64 here")
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    c = ld(299792458.0)
    n = cfg.samples_per_chirp
    frame_times = np.arange(round(duration * cfg.frame_rate)) / cfg.frame_rate
    fast_t = (np.arange(n, dtype=ld) - ld(n - 1) / 2) * (ld(cfg.chirp_duration) / n)
    slope = ld(cfg.bandwidth) / ld(cfg.chirp_duration)
    wavelength = c / ld(cfg.carrier_freq)
    iq = np.zeros((len(frame_times), n), dtype=np.clongdouble)
    for tgt in scene.targets:
        ranges = target_ranges(tgt, frame_times).astype(ld)
        omega = 2 * pi * (2 * slope * ranges / c)
        arg = omega[:, None] * fast_t[None, :] + (4 * pi * ranges / wavelength)[:, None]
        iq += np.cos(arg) + 1j * np.sin(arg)
    return iq


def target_ranges(tgt, frame_times):
    """A target's range per frame, as ``simulate_frames`` computes it."""
    disp_m = np.interp(frame_times, tgt.trace.times, tgt.trace.samples) / 1000.0
    return tgt.base_range + tgt.drift * frame_times + disp_m


def range_magnitudes(cube):
    """Magnitude range spectra, one row per frame."""
    return np.abs(np.fft.fft(cube.iq, axis=1))


def static_trace(duration=5.0, fs=100.0):
    return synthesize_trace(RespirationModel(0.3, (1e-9,)), None, 0.0, fs, duration, 0)


def reference_stitch(raw_phase, source_bins, old_bin_phase):
    """A frame-by-frame stitcher under ``stitch_phase``'s rule (test-only).

    ``old_bin_phase[i]`` is frame i's phase in frame i - 1's bin. It is read
    only where the bin switches, and stands in for ``raw_phase[i]`` there.
    """
    n = len(raw_phase)
    phase = np.empty(n)
    phase[0] = raw_phase[0]
    for i in range(1, n):
        ahead = raw_phase[i] if source_bins[i] == source_bins[i - 1] else old_bin_phase[i]
        delta = (ahead - raw_phase[i - 1] + math.pi) % (2.0 * math.pi) - math.pi
        phase[i] = phase[i - 1] + delta
    return phase


def switch_phases(old_bin_phase, source_bins):
    """The ``old_bin_phase`` values ``stitch_phase`` takes: one per bin switch."""
    return old_bin_phase[np.flatnonzero(np.diff(source_bins)) + 1]


def reference_track(cube, expected_range, search_width=2):
    """``track_target`` with one frame per loop step (test-only).

    Returns (phase, source_bins) from the frame-by-frame stitcher.
    """
    spectra = np.fft.fft(cube.iq, axis=1)
    mags = np.abs(spectra)
    n_bins = cube.iq.shape[1]
    bins = np.empty(cube.n_frames, dtype=int)
    raw = np.empty(cube.n_frames)
    old_bin = np.empty(cube.n_frames)
    low_snr_run = 0
    prev = round(expected_range / cube.bin_size)
    for i in range(cube.n_frames):
        lo = max(0, prev - search_width)
        hi = min(n_bins, prev + search_width + 1)
        k = lo + int(np.argmax(mags[i, lo:hi]))
        bins[i] = k
        raw[i] = math.atan2(spectra[i, k].imag, spectra[i, k].real)
        old_bin[i] = math.atan2(spectra[i, prev].imag, spectra[i, prev].real)
        prev = k
        if mags[i, k] < 3.0 * np.median(mags[i]):
            low_snr_run += 1
            if low_snr_run > int(cube.frame_rate):
                raise TrackingLostError(
                    f"peak below 3.0x median spectrum level for "
                    f"more than 1 s around frame {i}"
                )
        else:
            low_snr_run = 0
    return reference_stitch(raw, bins, old_bin), bins


def sequential_noisy_cube(cfg, scene, duration, seed):
    """``simulate_frames`` with its noise drawn after the tones, one whole-cube
    draw for the real parts and then one for the imaginary parts (test-only)."""
    iq = simulate_frames(cfg, dataclasses.replace(scene, noise_floor=0.0), duration).iq
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(scene.noise_floor / 2.0)
    iq.real += rng.normal(0.0, sigma, iq.shape)
    iq.imag += rng.normal(0.0, sigma, iq.shape)
    return iq


def one_call_track(cube, expected_range, search_width=2):
    """``track_target`` with the range FFT, magnitudes and medians each taken
    in one call over the whole cube (test-only)."""
    with np.errstate(invalid="ignore"):
        spectra = np.fft.fft(cube.iq, axis=1)
    mags = np.abs(spectra)
    floor = _SNR_PEAK_FACTOR * np.median(mags, axis=1)
    bad = ~np.isfinite(floor)
    if bad.any():
        raise InputError(f"frame {int(np.argmax(bad))} holds a non-finite I/Q sample")
    bins = _peak_chain(mags, round(expected_range / cube.bin_size), search_width)
    rows = np.arange(cube.n_frames)
    raw = np.array([math.atan2(z.imag, z.real) for z in spectra[rows, bins].tolist()])
    max_low_run = int(cube.frame_rate)
    low = np.concatenate(([False], mags[rows, bins] < floor, [False]))
    edges = np.flatnonzero(low[1:] != low[:-1])
    starts, ends = edges[::2], edges[1::2]
    too_long = np.flatnonzero(ends - starts > max_low_run)
    if too_long.size:
        frame = int(starts[too_long[0]]) + max_low_run
        raise TrackingLostError(
            f"peak below {_SNR_PEAK_FACTOR}x median spectrum level for "
            f"more than 1 s around frame {frame}"
        )
    switches = np.flatnonzero(np.diff(bins))
    switch_phase = [math.atan2(z.imag, z.real)
                    for z in spectra[switches + 1, bins[switches]].tolist()]
    return stitch_phase(raw, bins, cube.frame_rate, switch_phase)


def hopping_tone_cube(path, n=256, noise=0.0, seed=0):
    """Frame f holds a unit tone at bin ``path[f]`` plus complex noise."""
    t = np.arange(n)
    iq = np.exp(2j * np.pi * np.outer(path, t) / n)
    rng = np.random.default_rng(seed)
    iq += noise * (rng.normal(size=iq.shape) + 1j * rng.normal(size=iq.shape))
    return RadarCube(iq=iq, frame_rate=100.0, bin_size=0.05)


def weak_run_cube(runs, frames=900, n=256, seed=3):
    """A unit tone at bin 20 in complex noise, its amplitude set to ``amp``
    over each ``(start, length, amp)`` of ``runs``; also the number of such
    frames.

    Outside the runs the peak is about 128 times the mean magnitude. Inside
    them it is under 6 times, so the low-SNR call takes the sorted median.
    """
    amp = np.ones(frames)
    for start, length, a in runs:
        amp[start:start + length] = a
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(frames, n)) + 1j * rng.normal(size=(frames, n))
    iq = amp[:, None] * np.exp(2j * np.pi * 20 * np.arange(n) / n) + 0.05 * noise
    return RadarCube(iq, 100.0, 0.05), int(np.count_nonzero(amp != 1.0))


def flat_gap_cube(run, start=200, frames=600):
    """A tone at bin 10 that sinks into a flat floor for ``run`` frames from ``start``.

    In those frames an impulse puts every bin near 1 and the tone adds 1 to
    bin 10: still the peak, so the track stays put, but below 3x the median.
    From the default start, a run of 57 frames or more crosses frame
    ``_FRAME_BLOCK``, where the tracker's second block begins.
    """
    cube = hopping_tone_cube(np.full(frames, 10), n=64, noise=0.01, seed=9)
    cube.iq[start:start + run] /= 64
    cube.iq[start:start + run, 0] += 1.0
    return cube


class TestRadarConfig:
    def test_derived_quantities(self):
        cfg = RadarConfig()
        assert cfg.wavelength == pytest.approx(299792458.0 / 79e9)
        assert cfg.bin_size == pytest.approx(299792458.0 / 8e9)

    def test_frame_rate_floor(self):
        with pytest.raises(ValueError, match="frame_rate"):
            RadarConfig(frame_rate=10.0)

    @pytest.mark.parametrize("field", ["carrier_freq", "bandwidth", "chirp_duration",
                                       "frame_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError):
            RadarConfig(**{field: value})

    @pytest.mark.parametrize("noise_floor", [math.nan, math.inf, -1.0])
    def test_bad_noise_floor_rejected(self, noise_floor):
        with pytest.raises(ValueError, match="noise_floor must be finite and >= 0"):
            TargetScene((Target(1.0, static_trace()),), noise_floor=noise_floor)


class TestSimulateFrames:
    def test_static_target_peak_and_constant_phase(self):
        cube = simulate_frames(
            CFG_50MM, TargetScene((Target(1.0, static_trace()),)), 5.0, 0
        )
        spectra = range_magnitudes(cube)
        assert np.all(np.argmax(spectra, axis=1) == 20)  # 1.0 m / 0.05 m
        seq = track_target(cube, 1.0)
        assert np.ptp(seq.phase) < 1e-6

    def test_sinusoid_phase_swing_closed_form(self):
        cfg = RadarConfig()
        trace = synthesize_trace(
            RespirationModel(0.3, (1.0,)), None, 0.0, 100.0, 30.0, 0
        )
        cube = simulate_frames(cfg, TargetScene((Target(1.0, trace),)), 30.0, 0)
        seq = track_target(cube, 1.0)
        swing = 0.5 * np.ptp(seq.phase)
        assert swing == pytest.approx(4 * np.pi * 0.001 / cfg.wavelength, rel=1e-3)

    def test_two_targets_recoverable(self):
        tr_a = synthesize_trace(
            RespirationModel(0.25, (0.8,)),
            HeartbeatModel(ConstantRate(90.0), 0.12),
            0.0, 100.0, 20.0, 1,
        )
        tr_b = synthesize_trace(
            RespirationModel(0.35, (1.0,)),
            HeartbeatModel(ConstantRate(130.0), 0.2),
            0.0, 100.0, 20.0, 2,
        )
        cfg = RadarConfig()
        cube = simulate_frames(
            cfg, TargetScene((Target(1.0, tr_a), Target(2.0, tr_b))), 20.0, 3
        )
        spectra = range_magnitudes(cube)
        peaks = np.argsort(spectra[0])[-2:]
        assert set(np.round(peaks * cfg.bin_size, 1)) == {1.0, 2.0}
        for rng_m, src in ((1.0, tr_a), (2.0, tr_b)):
            rec = phase_to_displacement(track_target(cube, rng_m), cfg.wavelength)
            a = src.samples - src.samples.mean()
            b = rec.samples - rec.samples.mean()
            rms = np.sqrt(np.mean((a - b) ** 2) / np.mean(a**2))
            assert rms < 0.02

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="unambiguous"):
            simulate_frames(
                CFG_50MM,
                TargetScene((Target(100.0, static_trace()),)),
                5.0, 0,
            )

    def test_too_close_targets_rejected(self):
        with pytest.raises(ValueError, match="range bin"):
            simulate_frames(
                CFG_50MM,
                TargetScene((Target(1.0, static_trace()), Target(1.02, static_trace()))),
                5.0, 0,
            )

    def test_seeded_noise_deterministic(self):
        scene = TargetScene((Target(1.0, static_trace()),), noise_floor=0.01)
        a = simulate_frames(CFG_50MM, scene, 5.0, 11)
        b = simulate_frames(CFG_50MM, scene, 5.0, 11)
        assert np.array_equal(a.iq, b.iq)


    @staticmethod
    def two_target_scene(duration=12.0):
        traces = [
            synthesize_trace(RespirationModel(f, (1.0, 0.2)), HeartbeatModel(ConstantRate(hr), 0.15),
                             0.0, 100.0, duration, seed)
            for f, hr, seed in ((0.3, 80.0, 1), (0.25, 120.0, 2))
        ]
        return TargetScene(
            (Target(1.0, traces[0]), Target(2.2, traces[1], drift=0.002)), noise_floor=1e-3
        )

    def test_tones_within_twice_the_per_sample_error(self):
        # Measured on this scene against an 80-bit long double reference:
        # 1.84e-12 for one exponential per sample, 1.90e-12 for the tables.
        cfg, duration = RadarConfig(), 12.0
        scene = dataclasses.replace(self.two_target_scene(), noise_floor=0.0)
        exact = extended_precision_tones(cfg, scene, duration)
        per_sample_err = np.max(np.abs(full_size_tones(cfg, scene, duration) - exact))
        err = np.max(np.abs(simulate_frames(cfg, scene, duration).iq - exact))
        assert 1e-13 < per_sample_err < 1e-11
        assert err <= 2.0 * per_sample_err

    @pytest.mark.parametrize("n_samples", [2, 3, 255, 256])
    @pytest.mark.parametrize("n_frames",
                             [1, _FRAME_BLOCK - 1, 2 * _FRAME_BLOCK, 2 * _FRAME_BLOCK + 37])
    def test_tones_match_full_size_expression(self, n_samples, n_frames):
        # Bin size 4 m / n_samples, so a drifting target near 1 m stays in range.
        # Phases reach about 1e4 rad, so float64 rounding alone differs by a
        # few 1e-12; a wrong step or crop differs by far more than 1e-10.
        cfg = RadarConfig(bandwidth=299792458.0 * n_samples / 8.0, samples_per_chirp=n_samples)
        duration = n_frames / cfg.frame_rate
        chest = synthesize_trace(RespirationModel(0.3, (1.0,)),
                                 HeartbeatModel(ConstantRate(100.0), 0.1),
                                 0.0, 100.0, math.ceil(duration) + 1.0, 0)
        targets = [Target(1.0, chest, drift=0.05)]
        if n_samples > 3:
            targets.append(Target(2.5, chest, drift=-0.02))
        scene = TargetScene(targets)
        cube = simulate_frames(cfg, scene, duration)
        expected = full_size_tones(cfg, scene, duration)
        assert cube.iq.shape == expected.shape == (n_frames, n_samples)
        assert np.max(np.abs(cube.iq - expected)) < 1e-10

    def test_peak_memory_near_two_cubes(self):
        scene = self.two_target_scene()
        tracemalloc.start()
        try:
            cube = simulate_frames(RadarConfig(), scene, 12.0, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 1.44 cubes: the cube, one block of tones and one of noise,
        # and per-frame values. A full-size tone buffer would add one more cube.
        assert peak < 1.75 * cube.iq.nbytes

    def test_peak_memory_on_a_66_s_scene_is_near_one_cube(self):
        scene = self.two_target_scene(66.0)
        tracemalloc.start()
        try:
            cube = simulate_frames(RadarConfig(), scene, 66.0, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 1.07 cubes: the noise is drawn one block at a time. A
        # half-cube noise draw would be about 1.5.
        assert peak < 1.2 * cube.iq.nbytes

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_is_input_error(self, duration):
        with pytest.raises(InputError, match="duration must be finite"):
            simulate_frames(CFG_50MM, TargetScene((Target(1.0, static_trace()),)), duration)

    @pytest.mark.parametrize("base_range", [math.nan, math.inf])
    def test_non_finite_range_rejected(self, base_range):
        with pytest.raises(InputError, match="unambiguous"):
            simulate_frames(CFG_50MM, TargetScene((Target(base_range, static_trace()),)), 5.0)


class TestRangeFft:
    """Where a simulated target lands in the range spectrum."""

    def test_peak_location_error_within_one_bin(self):
        for rng_m in (1.003, 1.52, 2.71):
            cube = simulate_frames(
                CFG_50MM, TargetScene((Target(rng_m, static_trace()),)), 2.0, 0
            )
            k = int(np.argmax(range_magnitudes(cube)[0]))
            assert abs(k - rng_m / 0.05) <= 1.0


class TestTracking:
    def test_no_drift_identity_stitch(self):
        cube = simulate_frames(
            CFG_50MM, TargetScene((Target(1.0, static_trace(10.0)),)), 10.0, 0
        )
        seq = track_target(cube, 1.0)
        assert len(np.unique(seq.source_bins)) == 1

    def test_drift_stitched_continuous(self):
        cfg = RadarConfig()
        trace = synthesize_trace(
            RespirationModel(0.3, (0.4,)),
            HeartbeatModel(ConstantRate(100.0), 0.1),
            0.0, 100.0, 30.0, 0,
        )
        base = 1.0 + cfg.bin_size * 0.45
        cube = simulate_frames(
            cfg, TargetScene((Target(base, trace, drift=0.0008),)), 30.0, 0
        )
        seq = track_target(cube, base)
        assert len(np.unique(seq.source_bins)) >= 2
        # continuity invariant: stitched steps stay below pi
        assert np.max(np.abs(np.diff(seq.phase))) < np.pi
        # the naive per-bin unwrap keeps a discontinuity at the switch that
        # dwarfs any real inter-frame motion
        spectra = np.fft.fft(cube.iq, axis=1)
        raw = np.angle(spectra[np.arange(cube.n_frames), seq.source_bins])
        naive_jumps = np.abs(np.diff(np.unwrap(raw)))
        switches = np.flatnonzero(np.diff(seq.source_bins) != 0)
        true_step = np.max(np.abs(np.diff(trace.samples))) * 4 * np.pi / (cfg.wavelength * 1e3)
        assert naive_jumps[switches].min() > 25 * true_step

    def test_tracking_lost_on_flat_spectrum(self):
        # an impulse per frame has a perfectly flat spectrum: the peak never
        # clears 3x the median level, so tracking dies after one second
        iq = np.zeros((300, 128), dtype=complex)
        iq[:, 0] = 1.0
        cube = RadarCube(iq, 100.0, 0.05)
        with pytest.raises(TrackingLostError):
            track_target(cube, 1.0)

    @pytest.mark.parametrize(
        "frame,value",
        [(0, complex(np.nan)), (5, complex(np.nan)), (5, complex(np.inf)),
         (900, complex(np.nan)), (900, complex(np.inf))],  # the second half of 1000
    )
    def test_non_finite_sample_is_input_error(self, frame, value):
        cube = simulate_frames(
            CFG_50MM, TargetScene((Target(1.0, static_trace(10.0)),)), 10.0, 0
        )
        cube.iq[frame, 17] = value
        with pytest.raises(InputError, match=f"^frame {frame} holds a non-finite I/Q sample$"):
            track_target(cube, 1.0)

    def test_stitch_switch_offset(self):
        # constant slope 0.1 rad/frame, injected bin switch at frame 10
        raw = np.arange(20) * 0.1
        bins = np.zeros(20, dtype=int)
        raw2 = raw.copy()
        raw2[10:] += 2.0  # bin-dependent offset
        bins2 = bins.copy()
        bins2[10:] = 1
        # frame 10 read in the bin being left has no offset
        seq = stitch_phase(raw2, bins2, 100.0, [raw[10]])
        assert np.allclose(np.diff(seq.phase), 0.1, atol=1e-12)

    @pytest.mark.parametrize("switch_phase", [[], [0.1, 0.2], [[0.1]]])
    def test_stitch_needs_one_phase_per_switch(self, switch_phase):
        bins = np.repeat([0, 1], 10)
        with pytest.raises(ValueError, match=r"one value per bin switch \(1\)"):
            stitch_phase(np.zeros(20), bins, 100.0, switch_phase)

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_drifting_round_trip(self, seed):
        # Criterion 6's drifting scene at the benchmark's noise floor: the
        # bin switches 9-11 times, and the stitched displacement, drift
        # removed, stays within the 2% round-trip bound.
        cfg = RadarConfig()
        chest = synthesize_trace(
            RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04)),
            HeartbeatModel(ExponentialRecovery(152.0, 120.0, 30.0), 0.15),
            0.0, 100.0, 66.0, seed,
        )
        base, drift = 1.0 + cfg.bin_size * 0.45, 0.0004
        scene = TargetScene((Target(base, chest, drift=drift),), noise_floor=1e-4)
        seq = track_target(simulate_frames(cfg, scene, 66.0, seed), base)
        assert np.count_nonzero(np.diff(seq.source_bins)) >= 9
        rec = phase_to_displacement(seq, cfg.wavelength).samples - drift * 1e3 * chest.times
        a = chest.samples - chest.samples.mean()
        b = rec - rec.mean()
        assert math.sqrt(np.mean((a - b) ** 2) / np.mean(a**2)) <= 0.02


class TestMatchesFrameByFrameReference:
    """The array-form tracker and stitcher reproduce the per-frame ones bit for bit."""

    @staticmethod
    def assert_same_track(cube, expected_range):
        seq = track_target(cube, expected_range)
        phase, bins = reference_track(cube, expected_range)
        assert np.array_equal(seq.source_bins, bins)
        assert np.array_equal(seq.phase, phase)
        ref = one_call_track(cube, expected_range)
        assert np.array_equal(seq.source_bins, ref.source_bins)
        assert np.array_equal(seq.phase, ref.phase)
        return seq

    def test_drifting_scene_with_bin_switches(self):
        cfg = RadarConfig()
        trace = synthesize_trace(
            RespirationModel(0.3, (0.4,)),
            HeartbeatModel(ConstantRate(100.0), 0.1),
            0.0, 100.0, 20.0, 0,
        )
        scene = TargetScene((Target(1.0, trace, drift=0.02),), noise_floor=1e-3)
        seq = self.assert_same_track(simulate_frames(cfg, scene, 20.0, 4), 1.0)
        assert np.count_nonzero(np.diff(seq.source_bins)) >= 8

    def test_random_bins_with_fifty_switches(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(-np.pi, np.pi, 400)
        switch_at = np.sort(rng.choice(np.arange(1, 400), 50, replace=False))
        switch_at[:3] = [1, 2, 3]  # no history at frame 1, then back-to-back switches
        bins = np.zeros(400, dtype=int)
        for j in switch_at:
            bins[j:] += rng.choice([-1, 1])
        assert np.count_nonzero(np.diff(bins)) == 50
        old_bin = rng.uniform(-np.pi, np.pi, 400)
        seq = stitch_phase(raw, bins, 100.0, switch_phases(old_bin, bins))
        assert np.array_equal(seq.phase, reference_stitch(raw, bins, old_bin))

    def test_noisy_two_target_scene(self):
        tr_a = synthesize_trace(
            RespirationModel(0.25, (0.8,)),
            HeartbeatModel(ConstantRate(90.0), 0.12),
            0.05, 100.0, 20.0, 1,
        )
        tr_b = synthesize_trace(
            RespirationModel(0.35, (1.0,)),
            HeartbeatModel(ConstantRate(130.0), 0.2),
            0.05, 100.0, 20.0, 2,
        )
        scene = TargetScene(
            (Target(1.0, tr_a, drift=0.01), Target(2.2, tr_b, drift=-0.01)),
            noise_floor=1e-2,
        )
        cube = simulate_frames(RadarConfig(), scene, 20.0, 3)
        for expected_range in (1.0, 2.2):
            seq = self.assert_same_track(cube, expected_range)
            assert np.count_nonzero(np.diff(seq.source_bins)) >= 3

    def test_fading_target_lost_at_same_frame(self):
        # The peak sinks through the floor over a hundred-odd frames, where
        # noise makes each frame's low/high call flip, so the frame named
        # depends on every per-frame comparison (a 1% higher floor moves it).
        cube = simulate_frames(
            CFG_50MM, TargetScene((Target(1.0, static_trace(30.0)),)), 30.0, 0
        )
        fade = np.clip(1.0 - np.arange(cube.n_frames) / 2500.0, 0.0, None)
        noise = np.random.default_rng(2).normal(0.0, 1.0, cube.iq.shape)
        faded = RadarCube(cube.iq * fade[:, None] + noise, 100.0, 0.05)
        with pytest.raises(TrackingLostError) as expected:
            reference_track(faded, 1.0)
        with pytest.raises(TrackingLostError) as got:
            track_target(faded, 1.0)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("n_bins", [2, 3, 64, 255, 256])
    def test_row_medians_equal_numpy_median(self, n_bins):
        rng = np.random.default_rng(n_bins)
        shape = (2 * _FRAME_BLOCK + 37, n_bins)  # two whole sort blocks and part of one
        mags = np.abs(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        mags[:50, : n_bins // 2 + 1] = 1.0  # rows whose middle values tie
        assert np.array_equal(_row_medians(mags), np.median(mags, axis=1))

    def test_odd_chirp_length_median_is_one_order_statistic(self):
        cfg = RadarConfig(samples_per_chirp=255)
        trace = synthesize_trace(
            RespirationModel(0.3, (0.4,)),
            HeartbeatModel(ConstantRate(100.0), 0.1),
            0.0, 100.0, 20.0, 0,
        )
        scene = TargetScene((Target(1.0, trace, drift=0.02),), noise_floor=1e-3)
        seq = self.assert_same_track(simulate_frames(cfg, scene, 20.0, 4), 1.0)
        assert np.count_nonzero(np.diff(seq.source_bins)) >= 8

    @pytest.mark.parametrize("edge_bins", [(0, 1, 2), (63, 62, 61)])
    def test_window_clipped_at_spectrum_edge(self, edge_bins):
        # The peak wanders among the three bins nearest one end of a 64-bin
        # spectrum, so the search window is cut short there on most frames.
        rng = np.random.default_rng(5)
        path = rng.choice(edge_bins, 600, p=(0.5, 0.3, 0.2))
        cube = hopping_tone_cube(path, n=64, noise=0.3, seed=6)
        seq = self.assert_same_track(cube, edge_bins[0] * cube.bin_size)
        assert seq.source_bins.min() == 0 or seq.source_bins.max() == 63
        assert np.count_nonzero(np.diff(seq.source_bins)) >= 100

    def test_all_zero_cube_ties_go_to_lowest_bin(self):
        # Every window is all ties: the lowest bin wins, so the track steps
        # down search_width bins per frame until it sits at bin 0.
        cube = RadarCube(np.zeros((300, 128), dtype=complex), 100.0, 0.05)
        seq = self.assert_same_track(cube, 50 * 0.05)
        assert np.array_equal(seq.source_bins[:26], np.arange(48, -4, -2).clip(0))
        assert not seq.source_bins[25:].any()

    def test_bin_switch_on_every_frame(self):
        path = np.where(np.arange(1000) % 2, 41, 40)
        seq = self.assert_same_track(hopping_tone_cube(path, noise=0.05, seed=7), 2.0)
        assert np.count_nonzero(np.diff(seq.source_bins)) == 999

    def test_bin_switch_between_blocks(self):
        # The bin switches between the last frame of one tracker block and
        # the first of the next, so the phase in the bin being left comes
        # from the later block's spectra.
        path = np.repeat([40, 41, 40], [_FRAME_BLOCK, _FRAME_BLOCK, 100])
        seq = self.assert_same_track(hopping_tone_cube(path, noise=0.05, seed=7), 2.0)
        assert np.array_equal(np.flatnonzero(np.diff(seq.source_bins)),
                              [_FRAME_BLOCK - 1, 2 * _FRAME_BLOCK - 1])

    @pytest.mark.parametrize("run", [99, 100])
    def test_low_snr_run_of_one_second_is_kept(self, run):
        seq = self.assert_same_track(flat_gap_cube(run), 10 * 0.05)
        assert not np.any(seq.source_bins - 10)

    @pytest.mark.parametrize("run", [101, 250])
    def test_low_snr_run_over_one_second_lost_at_same_frame(self, run):
        cube = flat_gap_cube(run)
        with pytest.raises(TrackingLostError) as expected:
            reference_track(cube, 10 * 0.05)
        with pytest.raises(TrackingLostError) as one_call:
            one_call_track(cube, 10 * 0.05)
        with pytest.raises(TrackingLostError) as got:
            track_target(cube, 10 * 0.05)
        assert str(got.value) == str(expected.value) == str(one_call.value)
        assert str(got.value).endswith("around frame 300")

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.sampled_from([1.0, 2.0, 3.0, math.inf]),
                    st.floats(0.0, 1e-300),
                    st.floats(0.0, 1e300),
                ),
                min_size=2, max_size=12,
            ).map(lambda row: (row * 40)[:40]),
            min_size=1, max_size=6,
        ),
        at=st.integers(0, 39),
        scale=st.sampled_from([1.0, 2.0, 3.0, 6.0, 6.000001, 6.5, 40.0]),
    )
    def test_snr_floor_flags_equal_numpy_median(self, rows, at, scale):
        # Rows of repeated values tie at the median; the peak is one row
        # value scaled around the 3x-median and 6x-mean marks.
        mags = np.abs(np.array(rows))
        peak = mags[:, at] * scale
        mags[:, at] = peak
        floor = _snr_floor(mags, peak)
        expected = _SNR_PEAK_FACTOR * np.median(mags, axis=1)
        assert np.array_equal(peak < floor, peak < expected)
        assert np.array_equal(np.isfinite(floor), np.isfinite(expected))

    @pytest.mark.parametrize("n_bins", [16, 256, 4096])
    def test_snr_floor_near_the_mean_bound(self, n_bins):
        # Half the row zero and half at 1, with the peak above: the median is
        # close to twice the mean, the case the bound must hold for.
        half = n_bins // 2
        peaks = np.linspace(2.9, 5.0, 421)
        mags = np.zeros((peaks.size, n_bins))
        mags[:, half - 1:n_bins - 1] = 1.0
        mags[:, -1] = peaks
        floor = _snr_floor(mags, peaks)
        expected = _SNR_PEAK_FACTOR * np.median(mags, axis=1)
        assert np.array_equal(peaks < floor, peaks < expected)
        assert np.count_nonzero(floor == 0.0) > 0  # some rows clear on the mean

    @pytest.mark.parametrize(
        "runs, lost",
        [
            # Peak near 3x the median in each run: its low calls flip, and
            # no run of them lasts a second.
            ([(100, 80, 0.011), (300, 100, 0.011), (600, 120, 0.011)], False),
            # Noise alone for the last 400 frames: lost.
            ([(100, 60, 0.011), (500, 400, 0.0)], True),
        ],
    )
    def test_weak_frames_take_the_median_floor(self, runs, lost, monkeypatch):
        cube, n_weak = weak_run_cube(runs)
        sorted_rows = []

        def counted(mags):
            sorted_rows.append(mags.shape[0])
            return _row_medians(mags)

        monkeypatch.setattr(radar, "_row_medians", counted)
        if lost:
            with pytest.raises(TrackingLostError) as expected:
                reference_track(cube, 1.0)
            with pytest.raises(TrackingLostError) as got:
                track_target(cube, 1.0)
            assert str(got.value) == str(expected.value)
        else:
            self.assert_same_track(cube, 1.0)
        # Only the tracker sorts: its weak frames, and none of the others.
        assert sum(sorted_rows) == n_weak

    def test_noise_added_in_place_equals_complex_sum(self):
        trace = static_trace()
        scene = TargetScene((Target(1.0, trace),), noise_floor=0.01)
        noisy = simulate_frames(CFG_50MM, scene, 5.0, 11)
        iq = simulate_frames(CFG_50MM, TargetScene((Target(1.0, trace),)), 5.0, 11).iq
        rng = np.random.default_rng(11)
        sigma = math.sqrt(0.01 / 2.0)
        iq += rng.normal(0.0, sigma, iq.shape) + 1j * rng.normal(0.0, sigma, iq.shape)
        assert np.array_equal(noisy.iq, iq)


def noisy_scene(n_targets):
    """A noisy drifting scene of 12 s traces, with one target or two."""
    scene = TestSimulateFrames.two_target_scene()
    return dataclasses.replace(scene, targets=scene.targets[:n_targets])


class TestTwoThreads:
    """The simulator's noise, drawn in ``_FRAME_BLOCK``-row blocks, gives the
    bytes of one whole-cube draw per part, also with callers on several
    threads; the tracker's loop over those blocks gives the bytes of one
    whole-cube pass."""

    @pytest.mark.parametrize("n_targets", [1, 2])
    @pytest.mark.parametrize("n_frames", [1, _FRAME_BLOCK - 1, 2 * _FRAME_BLOCK, 549])
    def test_noisy_cube_equals_sequential_draws(self, n_targets, n_frames):
        cfg, scene = RadarConfig(), noisy_scene(n_targets)
        duration = n_frames / cfg.frame_rate
        cube = simulate_frames(cfg, scene, duration, 21)
        assert cube.n_frames == n_frames
        assert np.array_equal(cube.iq, sequential_noisy_cube(cfg, scene, duration, 21))

    def test_cube_file_bytes_pinned(self, tmp_path):
        # Written by the one-thread simulator, before the noise moved to a worker.
        cube = simulate_frames(RadarConfig(), noisy_scene(2), 12.0, 5)
        write_cube(cube, tmp_path / "cube.bin")
        assert hashlib.sha256((tmp_path / "cube.bin").read_bytes()).hexdigest() == (
            "a14e7fa465eb26694812dd16384d978097cc95af541df3aa6d6ace1c1982cfe1"
        )

    @pytest.mark.parametrize(
        "n_frames", [1, _FRAME_BLOCK, _FRAME_BLOCK + 1, 2 * _FRAME_BLOCK + 1, 1200]
    )
    def test_track_equals_one_call_reference(self, n_frames):
        cfg = RadarConfig()
        cube = simulate_frames(cfg, noisy_scene(2), n_frames / cfg.frame_rate, 6)
        for expected_range in (1.0, 2.2):
            seq = track_target(cube, expected_range)
            ref = one_call_track(cube, expected_range)
            assert np.array_equal(seq.source_bins, ref.source_bins)
            assert np.array_equal(seq.phase, ref.phase)

    def test_first_bad_frame_named_when_both_halves_hold_one(self):
        # Frame 300 is in the tracker's second block and frame 700 in its third.
        cube = simulate_frames(CFG_50MM, TargetScene((Target(1.0, static_trace(10.0)),)), 10.0)
        cube.iq[[700, 300], 3] = complex(np.nan)
        with pytest.raises(InputError, match="^frame 300 holds"):
            one_call_track(cube, 1.0)
        with pytest.raises(InputError, match="^frame 300 holds"):
            track_target(cube, 1.0)

    def test_track_peak_memory_is_a_few_blocks(self):
        cube = hopping_tone_cube(np.full(3000, 20), noise=0.1, seed=6)
        tracemalloc.start()
        try:
            track_target(cube, 20 * 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 0.23 cubes at 3000 frames: one block's spectra, magnitudes
        # and sorted copy, and a few values per frame. A whole-cube spectrum
        # alone would be one cube.
        assert peak < 0.3 * cube.iq.nbytes

    def test_bad_seed_raises(self):
        with pytest.raises(ValueError):
            simulate_frames(RadarConfig(), noisy_scene(1), 5.0, -1)

    def test_failing_draw_surfaces_its_exception(self, monkeypatch):
        real_default_rng = np.random.default_rng

        class FailingDraws:
            """Draws two blocks, then fails."""

            def __init__(self, seed):
                self.rng, self.calls = real_default_rng(seed), 0

            def standard_normal(self, size):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("third draw failed")
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", FailingDraws)
        with pytest.raises(RuntimeError, match="third draw failed"):
            simulate_frames(RadarConfig(), noisy_scene(2), 12.0, 4)

    def test_three_callers_at_once_match_sequential(self):
        # Each call owns its generator and arrays; with the interpreter
        # switching threads every microsecond, a shared buffer or a draw out
        # of stream order would show as a byte difference.
        cfg, scene, duration = RadarConfig(), noisy_scene(2), 6.0
        seeds = (31, 32, 33)
        expected = {}
        for seed in seeds:
            iq = sequential_noisy_cube(cfg, scene, duration, seed)
            ref = one_call_track(RadarCube(iq, cfg.frame_rate, cfg.bin_size), 2.2)
            expected[seed] = (iq, ref)
        got, errors = {}, []

        def run(seed):
            try:
                cube = simulate_frames(cfg, scene, duration, seed)
                got[seed] = (cube.iq, track_target(cube, 2.2))
            except BaseException as exc:  # reported by the main thread below
                errors.append(exc)

        callers = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert not errors
        for seed in seeds:
            iq, seq = got[seed]
            ref_iq, ref = expected[seed]
            assert np.array_equal(iq, ref_iq)
            assert np.array_equal(seq.source_bins, ref.source_bins)
            assert np.array_equal(seq.phase, ref.phase)


class TestFloat32Cube:
    """A cube read from file stays complex64 and tracks as its complex128
    widening does, bit for bit."""

    def test_cube_keeps_either_complex_precision(self):
        for dtype in (np.complex64, np.complex128):
            iq = np.ones((3, 4), dtype=dtype)
            assert RadarCube(iq, 100.0, 0.05).iq is iq
        floats = RadarCube([[1.0, 2.0], [3.0, 4.0]], 100.0, 0.05).iq
        assert floats.dtype == np.complex128
        assert np.array_equal(floats, [[1, 2], [3, 4]])
        assert RadarCube(np.ones((2, 2), dtype=np.float32), 100.0, 0.05).iq.dtype == np.complex128

    @pytest.mark.parametrize("n_frames", [1, _FRAME_BLOCK - 1, 2 * _FRAME_BLOCK, 549])
    def test_read_cube_tracks_as_its_widening(self, tmp_path, n_frames):
        cfg = RadarConfig()
        write_cube(simulate_frames(cfg, noisy_scene(2), n_frames / cfg.frame_rate, 8),
                   tmp_path / "cube.bin")
        cube = read_cube(tmp_path / "cube.bin")
        assert cube.iq.dtype == np.complex64
        wide = RadarCube(cube.iq.astype(complex), cube.frame_rate, cube.bin_size)
        for expected_range in (1.0, 2.2):
            seq = track_target(cube, expected_range)
            ref = track_target(wide, expected_range)
            assert np.array_equal(seq.source_bins, ref.source_bins)
            assert np.array_equal(seq.phase, ref.phase)
            one = one_call_track(wide, expected_range)
            assert np.array_equal(seq.phase, one.phase)

    def test_track_peak_memory_on_complex64_is_a_few_blocks(self):
        iq = hopping_tone_cube(np.full(3000, 20), noise=0.1, seed=6).iq.astype(np.complex64)
        cube = RadarCube(iq, 100.0, 0.05)
        tracemalloc.start()
        try:
            track_target(cube, 20 * 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 3.6 blocks of complex128 rows at 3000 frames: one block
        # widened, its spectra, magnitudes and sorted copy, and a few values
        # per frame. Widening the whole cube would be 11.7 blocks by itself.
        block = _FRAME_BLOCK * cube.iq.shape[1] * 16
        assert peak < 4.5 * block


class TestPhaseToDisplacement:
    def test_formula_identity(self):
        seq = PhaseSequence(np.array([0.0, 4 * np.pi]), np.zeros(2, dtype=int), 100.0)
        trace = phase_to_displacement(seq, 0.004)
        assert trace.samples[1] == pytest.approx(4.0)  # 4 mm

    def test_zero_change(self):
        seq = PhaseSequence(np.full(10, 1.23), np.zeros(10, dtype=int), 100.0)
        assert np.all(phase_to_displacement(seq, 0.004).samples == 0.0)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, 0.0, -0.004])
    def test_bad_wavelength_is_input_error(self, wavelength):
        seq = PhaseSequence(np.linspace(0.0, 1.0, 100), np.zeros(100, dtype=int), 100.0)
        with pytest.raises(InputError, match="wavelength must be finite and > 0"):
            phase_to_displacement(seq, wavelength)

    def test_round_trip_half_millimeter(self):
        cfg = RadarConfig()
        trace = synthesize_trace(
            RespirationModel(0.3, (0.4,)),
            HeartbeatModel(ConstantRate(100.0), 0.1),
            0.0, 100.0, 30.0, 0,
        )
        cube = simulate_frames(cfg, TargetScene((Target(1.0, trace),)), 30.0, 0)
        rec = phase_to_displacement(track_target(cube, 1.0), cfg.wavelength)
        a = trace.samples - trace.samples.mean()
        b = rec.samples - rec.samples.mean()
        rms = np.sqrt(np.mean((a - b) ** 2) / np.mean(a**2))
        assert rms < 0.02
