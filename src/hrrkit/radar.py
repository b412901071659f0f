"""FMCW radar front-end simulation and phase-sequence extraction.

The dechirped point-scatterer model: each target contributes a complex
tone whose beat frequency is proportional to range and whose phase is
4*pi*range/wavelength. A per-frame FFT over fast time (the range FFT)
turns frames into range spectra; tracking a target means following the
spectral peak across frames, unwrapping its phase, and stitching over
range-bin switches so the sequence stays continuous. Phase converts to
displacement through delta_d = wavelength * delta_phi / (4*pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TrackingLostError
from .signal_model import MIN_SAMPLE_RATE_HZ, ChestMotionTrace

SPEED_OF_LIGHT = 299792458.0

# Tracking-SNR floor: spectral peak below this multiple of the median
# spectrum level counts as a low-SNR frame.
_SNR_PEAK_FACTOR = 3.0
# A peak at or above this multiple of its frame's mean magnitude clears the
# floor without the median: magnitudes are not negative, so the median is at
# most twice the mean. The 1e-6 over that covers the rounding of the mean
# and the median, for rows of up to some 1e8 bins whose mean is a normal float.
_CLEAR_PEAK_FACTOR = 2.0 * _SNR_PEAK_FACTOR + 1e-6
_TINY = np.finfo(float).tiny
# Per frame the tracker searches this many bins either side of the last
# frame's peak bin.
_SEARCH_WIDTH = 2
# Frames in the peak chain's first vectorized argmax after a bin switch; the
# block doubles while the peak stays put.
_FIRST_BLOCK = 64
# Frames per block where the simulator builds its tones and draws its noise,
# where the tracker widens, transforms, takes magnitudes and sorts for medians,
# and where the cube file is read and written: each temporary stays at or under
# 1 MB at 256 samples per chirp, not a cube's size. The tracker keeps only
# per-frame values from each block.
_FRAME_BLOCK = 256


@dataclass(frozen=True)
class RadarConfig:
    """Chirp and frame geometry; wavelength and bin size are derived."""

    carrier_freq: float = 79e9        # mid-band of 77-81 GHz
    bandwidth: float = 4e9
    chirp_duration: float = 50e-6
    samples_per_chirp: int = 256
    frame_rate: float = 100.0

    def __post_init__(self):
        # Negated comparisons, so that NaN fails them too.
        if not (0 < self.carrier_freq < math.inf and 0 < self.bandwidth < math.inf):
            raise ValueError(
                f"carrier_freq and bandwidth must be finite and > 0, got "
                f"{self.carrier_freq} and {self.bandwidth}"
            )
        if not (0 < self.chirp_duration < math.inf and self.samples_per_chirp >= 2):
            raise ValueError("invalid chirp geometry")
        if not MIN_SAMPLE_RATE_HZ <= self.frame_rate < math.inf:
            raise ValueError(
                f"frame_rate must be finite and >= {MIN_SAMPLE_RATE_HZ} Hz, "
                f"got {self.frame_rate}"
            )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def bin_size(self) -> float:
        """Range per FFT bin, c / (2 * bandwidth)."""
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth)

    @property
    def unambiguous_range(self) -> float:
        return self.samples_per_chirp * self.bin_size


@dataclass(frozen=True)
class Target:
    base_range: float                  # m
    trace: ChestMotionTrace            # chest displacement, mm
    drift: float = 0.0                 # slow range drift, m/s


@dataclass(frozen=True)
class TargetScene:
    targets: tuple[Target, ...]
    noise_floor: float = 0.0           # noise power relative to a unit target

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ValueError("scene needs at least one target")
        if not 0 <= self.noise_floor < math.inf:
            raise ValueError(f"noise_floor must be finite and >= 0, got {self.noise_floor}")


@dataclass
class RadarCube:
    """Per-frame complex IF samples plus the spectral geometry.

    ``iq`` stays complex64 or complex128 when given either, so a cube read
    from a float32 file keeps half the memory; any other input becomes
    complex128. The tracker widens each block of rows to complex128 before
    its FFT, so both precisions of the same values track alike.
    """

    iq: np.ndarray                     # (frames, samples_per_chirp), complex
    frame_rate: float
    bin_size: float

    def __post_init__(self):
        self.iq = np.asarray(self.iq)
        if self.iq.dtype not in (np.complex64, np.complex128):
            self.iq = self.iq.astype(complex)
        if self.iq.ndim != 2:
            raise ValueError("iq must be (frames, samples)")

    @property
    def n_frames(self) -> int:
        return self.iq.shape[0]


@dataclass
class PhaseSequence:
    """Stitched per-frame phase of a tracked target."""

    phase: np.ndarray                  # radians
    source_bins: np.ndarray            # chosen range bin per frame
    sample_rate: float                 # = frame_rate


def simulate_frames(
    config: RadarConfig,
    scene: TargetScene,
    duration: float,
    seed: int = 0,
) -> RadarCube:
    """Simulate the IF samples of every frame over ``duration`` seconds.

    Each target appears as a tone at its instantaneous beat frequency with
    phase 4*pi*range/wavelength; complex white noise is added at the
    scene's noise floor. Target displacement traces are interpolated to
    frame times when their rate differs from the frame rate.

    A frame's tone is the product of two short exponential tables, one over
    coarse and one over fine fast-time steps (``_tone_sum``): 32 complex
    exponentials per frame and target at 256 samples, not 256. On a
    two-target scene its samples are within 1.9e-12 of an extended-precision
    evaluation of the closed form, next to 1.84e-12 for one exponential per
    sample. The two float64 forms differ by up to 1.3e-12, so the cube's
    bytes are not those of the per-sample form; the noise draws are.

    The noise is one stream from ``np.random.default_rng(seed)``: the real
    parts of every frame, then the imaginary parts, drawn and added in
    ``_FRAME_BLOCK``-row blocks in that order. A block of draws equals the
    matching rows of one whole-cube draw, so the cube is the same bit for
    bit, and only one block of noise is held beside the cube, not a half
    cube.
    """
    if not math.isfinite(duration):
        raise InputError(f"duration must be finite, got {duration}")
    n_frames = round(duration * config.frame_rate)
    if n_frames < 1:
        raise InputError("duration too short for a single frame")
    frame_times = np.arange(n_frames) / config.frame_rate

    ranges = np.empty((len(scene.targets), n_frames))
    for ti, tgt in enumerate(scene.targets):
        if tgt.trace.duration < duration - 1e-9:
            raise InputError(
                f"target trace ({tgt.trace.duration:.2f} s) shorter than the "
                f"simulation duration ({duration:.2f} s)"
            )
        disp_m = np.interp(frame_times, tgt.trace.times, tgt.trace.samples) / 1000.0
        ranges[ti] = tgt.base_range + tgt.drift * frame_times + disp_m
        if not (ranges[ti].min() > 0 and ranges[ti].max() < config.unambiguous_range):
            raise InputError(
                f"target {ti} leaves (0, {config.unambiguous_range:.2f}) m "
                f"unambiguous range"
            )
    if len(scene.targets) > 1:
        for a in range(len(scene.targets)):
            for b in range(a + 1, len(scene.targets)):
                if np.min(np.abs(ranges[a] - ranges[b])) < config.bin_size:
                    raise InputError(
                        f"targets {a} and {b} come closer than one range bin"
                    )

    slope = config.bandwidth / config.chirp_duration
    omega = 2.0 * np.pi * (2.0 * slope * ranges / SPEED_OF_LIGHT)   # beat, rad/s
    phase0 = 4.0 * np.pi * ranges / config.wavelength                 # phase, rad
    n = config.samples_per_chirp
    dt = config.chirp_duration / n
    if scene.noise_floor > 0:
        iq = _noisy_tone_sum(omega, phase0, n, dt, np.random.default_rng(seed),
                             math.sqrt(scene.noise_floor / 2.0))
    else:
        iq = _tone_sum(omega, phase0, n, dt)
    return RadarCube(iq=iq, frame_rate=config.frame_rate, bin_size=config.bin_size)


def _noisy_tone_sum(omega, phase0, n: int, dt: float, rng, sigma: float) -> np.ndarray:
    """``_tone_sum`` plus complex noise of ``sigma`` per part.

    The same as adding ``rng.normal(0.0, sigma, shape)`` to the real parts and
    then another to the imaginary parts, one ``_FRAME_BLOCK`` of rows at a time.
    """
    iq = _tone_sum(omega, phase0, n, dt)
    for part in (iq.real, iq.imag):
        for f0 in range(0, iq.shape[0], _FRAME_BLOCK):
            rows = part[f0:f0 + _FRAME_BLOCK]
            rows += _scaled_normal(rng, sigma, rows.shape)
    return iq


def _scaled_normal(rng, sigma: float, shape) -> np.ndarray:
    """``rng.normal(0.0, sigma, shape)`` bit for bit, and faster.

    The generator draws a normal value as ``loc + scale * z`` from the same
    standard normal z, and ``0.0 + x`` is x, so scaling the standard draws in
    place gives the same floats from the same stream.
    """
    z = rng.standard_normal(shape)
    z *= sigma
    return z


def _tone_sum(omega: np.ndarray, phase0: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Sum over targets of exp(1j * (omega * t + phase0)) at n fast-time samples.

    ``omega`` and ``phase0`` are (targets, frames). Fast time t runs in steps
    of ``dt`` and is referenced to the chirp center: the beat term then
    averages out of the peak-bin phase, which tracks 4*pi*R/lambda exactly
    (up to a per-bin constant that the stitching step absorbs).

    The sample index splits as a * n_fine + b, with n_coarse = ceil(sqrt(n))
    coarse steps and n_fine = ceil(n / n_coarse) fine ones, so a tone is
    exp(1j * (omega * t[a * n_fine] + phase0)) * exp(1j * omega * b * dt):
    (n_coarse + n_fine) exponentials per frame instead of n, and one complex
    product per sample. Samples past n are cropped. Frames go in blocks of
    ``_FRAME_BLOCK``; the first target's block is written, later ones added.
    When the tables cover exactly n samples, the first target's product goes
    straight into the cube's rows.
    """
    n_coarse = math.isqrt(n - 1) + 1
    n_fine = -(-n // n_coarse)
    coarse_t = (np.arange(0, n_coarse * n_fine, n_fine) - (n - 1) / 2.0) * dt
    fine_t = np.arange(n_fine) * dt
    n_targets, n_frames = omega.shape
    iq = np.empty((n_frames, n), dtype=complex)
    block = np.empty((min(n_frames, _FRAME_BLOCK), n_coarse, n_fine), dtype=complex)
    for f0 in range(0, n_frames, _FRAME_BLOCK):
        f1 = min(f0 + _FRAME_BLOCK, n_frames)
        tones = block[:f1 - f0]
        for ti in range(n_targets):
            w, p0 = omega[ti, f0:f1, None], phase0[ti, f0:f1, None]
            coarse = np.exp(1j * (w * coarse_t + p0))[:, :, None]
            fine = np.exp(1j * (w * fine_t))[:, None, :]
            if ti == 0 and n_coarse * n_fine == n:
                np.multiply(coarse, fine, out=iq[f0:f1].reshape(f1 - f0, n_coarse, n_fine))
                continue
            np.multiply(coarse, fine, out=tones)
            tone = tones.reshape(f1 - f0, -1)[:, :n]
            if ti == 0:
                iq[f0:f1] = tone
            else:
                iq[f0:f1] += tone
    return iq


def stitch_phase(
    raw_phase: np.ndarray,
    source_bins: np.ndarray,
    sample_rate: float,
    switch_phase: np.ndarray,
) -> PhaseSequence:
    """Make a per-frame phase sequence continuous across bin switches.

    Every increment is a wrapped frame-to-frame phase difference measured in
    the earlier frame's bin. Within a bin that is standard unwrapping. When
    the bin switches between frames j and j + 1, ``switch_phase`` supplies
    the phase of frame j + 1 in frame j's bin, one value per switch in frame
    order, and the increment is that phase minus ``raw_phase[j]``. So the new
    bin's own phase offset never enters the sequence, and a switch leaves no
    step.
    """
    raw_phase = np.asarray(raw_phase, dtype=float)
    source_bins = np.asarray(source_bins, dtype=int)
    switches = np.flatnonzero(np.diff(source_bins))
    switch_phase = np.asarray(switch_phase, dtype=float)
    if switch_phase.shape != switches.shape:
        raise ValueError(
            f"switch_phase must hold one value per bin switch ({switches.size}), "
            f"got shape {switch_phase.shape}"
        )
    ahead = raw_phase[1:].copy()
    ahead[switches] = switch_phase
    delta = (ahead - raw_phase[:-1] + math.pi) % (2.0 * math.pi) - math.pi
    phase = np.cumsum(np.concatenate((raw_phase[:1], delta)))
    return PhaseSequence(phase=phase, source_bins=source_bins, sample_rate=sample_rate)


def track_target(cube: RadarCube, expected_range: float) -> PhaseSequence:
    """Follow one target's spectral peak and extract its stitched phase.

    Per frame the bin is the magnitude argmax within ``_SEARCH_WIDTH`` bins
    of the previous frame's bin (seeded from ``expected_range``). Frames
    whose peak stays below 3x the median spectrum level for more than one
    second raise TrackingLostError. A frame with a non-finite sample raises
    InputError naming the first such frame: it makes the frame's whole
    spectrum non-finite.

    One loop over ``_FRAME_BLOCK``-row blocks widens each block to
    complex128 (a complex128 cube takes no copy), takes its range FFT and
    magnitudes, and continues the peak chain from the last block's final
    bin. A complex64 cube thus gives the spectra, bins and phases of its
    complex128 widening, bit for bit. Only frames whose peak does not clear
    the floor on their mean magnitude alone are sorted for their median
    (``_snr_floor``). Only per-frame values outlive a block: the chosen bin,
    the complex value there, the low-SNR flag and, at each bin switch, the
    next frame's value in the bin being left. A row's spectrum does not
    depend on the rows transformed with it, so these are the values of one
    whole-cube pass, bit for bit.
    """
    if cube.n_frames < 1:
        raise ValueError("cube has no frames")
    if not math.isfinite(expected_range):
        raise InputError(f"expected_range must be finite, got {expected_range}")
    n_bins = cube.iq.shape[1]
    center = round(expected_range / cube.bin_size)
    if not 0 <= center < n_bins:
        raise InputError(
            f"expected_range {expected_range} m is outside the spectrum"
        )
    n_frames = cube.n_frames
    bins = np.empty(n_frames, dtype=int)
    peaks = np.empty(n_frames, dtype=complex)
    low = np.zeros(n_frames + 2, dtype=bool)  # padded by one frame each side
    left = []  # at each bin switch, the next frame's value in the bin being left
    prev = center
    for b0 in range(0, n_frames, _FRAME_BLOCK):
        block = cube.iq[b0:b0 + _FRAME_BLOCK].astype(complex, copy=False)
        with np.errstate(invalid="ignore"):
            spectra = np.fft.fft(block, axis=1)
        mags = np.abs(spectra)
        chain = _peak_chain(mags, prev, _SEARCH_WIDTH)
        rows = np.arange(chain.size)
        peak = mags[rows, chain]
        floor = _snr_floor(mags, peak)
        bad = ~np.isfinite(floor)
        if bad.any():
            raise InputError(
                f"frame {b0 + int(np.argmax(bad))} holds a non-finite I/Q sample"
            )
        bins[b0:b0 + chain.size] = chain
        peaks[b0:b0 + chain.size] = spectra[rows, chain]
        low[b0 + 1:b0 + 1 + chain.size] = peak < floor
        # Frame 0 follows no frame, so its bin is never a switch.
        path = np.concatenate(([prev if b0 else chain[0]], chain))
        switches = np.flatnonzero(np.diff(path))
        left.append(spectra[switches, path[switches]])
        prev = int(chain[-1])

    max_low_run = int(cube.frame_rate)  # one second
    edges = np.flatnonzero(low[1:] != low[:-1])
    starts, ends = edges[::2], edges[1::2]
    too_long = np.flatnonzero(ends - starts > max_low_run)
    if too_long.size:
        frame = int(starts[too_long[0]]) + max_low_run
        raise TrackingLostError(
            f"peak below {_SNR_PEAK_FACTOR}x median spectrum level for "
            f"more than 1 s around frame {frame}"
        )
    # math.atan2, not np.arctan2: the two differ in the last bit.
    left = np.concatenate(left)
    raw = np.array(list(map(math.atan2, peaks.imag.tolist(), peaks.real.tolist())))
    switch_phase = list(map(math.atan2, left.imag.tolist(), left.real.tolist()))
    return stitch_phase(raw, bins, cube.frame_rate, switch_phase)


def _snr_floor(mags: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Per row, ``_SNR_PEAK_FACTOR`` times the median, or 0 where ``peak``
    clears that floor on the mean alone.

    Half a row's values are at least its median and none is negative, so the
    median is at most twice the mean. A peak at least ``_CLEAR_PEAK_FACTOR``
    times a finite, normal mean is at or above the floor, and only the other
    rows are sorted. So ``peak < floor``, and whether ``floor`` is finite,
    are row for row what the floor from ``np.median`` gives.
    """
    mean = mags.mean(axis=1)
    clear = (peak >= _CLEAR_PEAK_FACTOR * mean) & (mean >= _TINY) & (mean < math.inf)
    unsure = np.flatnonzero(~clear)
    floor = np.zeros(mags.shape[0])
    floor[unsure] = _SNR_PEAK_FACTOR * _row_medians(mags[unsure])
    return floor


def _row_medians(mags: np.ndarray) -> np.ndarray:
    """``np.median(mags, axis=1)`` to the bit, from one sort of the rows.

    The median is the middle order statistic, or the mean of the two middle
    ones for an even count: the same values, added and halved the same way.
    """
    half = mags.shape[1] // 2
    ordered = np.sort(mags, axis=1)
    if mags.shape[1] % 2:
        return ordered[:, half]
    return (ordered[:, half - 1] + ordered[:, half]) / 2


def _peak_chain(mags: np.ndarray, center: int, search_width: int) -> np.ndarray:
    """Per frame, the argmax within ``search_width`` bins of the last frame's bin.

    Frames whose peak stays in the previous bin all search the same window,
    so a block of them is one argmax. A block ends at the first frame whose
    peak moves and the next one starts after it; blocks double while the
    peak stays put.
    """
    n_frames, n_bins = mags.shape
    bins = np.empty(n_frames, dtype=int)
    prev, i, block = center, 0, _FIRST_BLOCK
    while i < n_frames:
        lo = max(0, prev - search_width)
        hi = min(n_bins, prev + search_width + 1)
        found = lo + np.argmax(mags[i:i + block, lo:hi], axis=1)
        moved = np.flatnonzero(found != prev)
        if moved.size:
            found = found[:moved[0] + 1]
            prev = int(found[-1])
            block = _FIRST_BLOCK
        else:
            block *= 2
        bins[i:i + found.size] = found
        i += found.size
    return bins


def phase_to_displacement(seq: PhaseSequence, wavelength: float) -> ChestMotionTrace:
    """Relative displacement in mm from a stitched phase sequence."""
    if not 0 < wavelength < math.inf:
        raise InputError(f"wavelength must be finite and > 0, got {wavelength}")
    disp_m = wavelength * (seq.phase - seq.phase[0]) / (4.0 * np.pi)
    return ChestMotionTrace(disp_m * 1000.0, seq.sample_rate)
