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
_STITCH_MEDIAN_FRAMES = 5


@dataclass(frozen=True)
class RadarConfig:
    """Chirp and frame geometry; wavelength and bin size are derived."""

    carrier_freq: float = 79e9        # mid-band of 77-81 GHz
    bandwidth: float = 4e9
    chirp_duration: float = 50e-6
    samples_per_chirp: int = 256
    frame_rate: float = 100.0

    def __post_init__(self):
        if self.carrier_freq <= 0 or self.bandwidth <= 0:
            raise ValueError("carrier_freq and bandwidth must be > 0")
        if self.chirp_duration <= 0 or self.samples_per_chirp < 2:
            raise ValueError("invalid chirp geometry")
        if self.frame_rate < MIN_SAMPLE_RATE_HZ:
            raise ValueError(
                f"frame_rate must be >= {MIN_SAMPLE_RATE_HZ} Hz, got {self.frame_rate}"
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
        if self.noise_floor < 0:
            raise ValueError("noise_floor must be >= 0")


@dataclass
class RadarCube:
    """Per-frame complex IF samples plus the spectral geometry."""

    iq: np.ndarray                     # (frames, samples_per_chirp), complex
    frame_rate: float
    bin_size: float

    def __post_init__(self):
        self.iq = np.asarray(self.iq, dtype=complex)
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
    """
    n_frames = round(duration * config.frame_rate)
    if n_frames < 1:
        raise InputError("duration too short for a single frame")
    frame_times = np.arange(n_frames) / config.frame_rate

    ranges = np.empty((len(scene.targets), n_frames))
    for ti, tgt in enumerate(scene.targets):
        if tgt.trace.unit != "mm":
            raise InputError("target traces must be displacement in mm")
        if tgt.trace.duration < duration - 1e-9:
            raise InputError(
                f"target trace ({tgt.trace.duration:.2f} s) shorter than the "
                f"simulation duration ({duration:.2f} s)"
            )
        disp_m = np.interp(frame_times, tgt.trace.times, tgt.trace.samples) / 1000.0
        ranges[ti] = tgt.base_range + tgt.drift * frame_times + disp_m
        if ranges[ti].min() <= 0 or ranges[ti].max() >= config.unambiguous_range:
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

    n = config.samples_per_chirp
    # Fast time referenced to the chirp center: the beat term then averages
    # out of the peak-bin phase, which tracks 4*pi*R/lambda exactly (up to a
    # per-bin constant that the stitching step absorbs).
    fast_t = (np.arange(n) - (n - 1) / 2.0) * (config.chirp_duration / n)
    slope = config.bandwidth / config.chirp_duration
    iq = np.zeros((n_frames, n), dtype=complex)
    for ti in range(len(scene.targets)):
        beat = 2.0 * slope * ranges[ti] / SPEED_OF_LIGHT            # (frames,)
        phase0 = 4.0 * np.pi * ranges[ti] / config.wavelength       # (frames,)
        iq += np.exp(1j * (2.0 * np.pi * beat[:, None] * fast_t[None, :] + phase0[:, None]))
    if scene.noise_floor > 0:
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(scene.noise_floor / 2.0)
        iq.real += rng.normal(0.0, sigma, iq.shape)
        iq.imag += rng.normal(0.0, sigma, iq.shape)
    return RadarCube(iq=iq, frame_rate=config.frame_rate, bin_size=config.bin_size)


def range_fft(cube: RadarCube) -> np.ndarray:
    """Magnitude range spectra, one row per frame."""
    if cube.n_frames == 0:
        raise ValueError("empty cube")
    return np.abs(np.fft.fft(cube.iq, axis=1))


def stitch_phase(
    raw_phase: np.ndarray, source_bins: np.ndarray, sample_rate: float
) -> PhaseSequence:
    """Make a per-frame phase sequence continuous across bin switches.

    Within a bin, increments are the wrapped frame-to-frame differences
    (standard unwrapping). At a bin switch the raw difference is
    meaningless, so the boundary increment is replaced by the median of
    the preceding five increments, which offsets the whole subsequent
    segment by a constant.
    """
    raw_phase = np.asarray(raw_phase, dtype=float)
    source_bins = np.asarray(source_bins, dtype=int)
    delta = (np.diff(raw_phase) + math.pi) % (2.0 * math.pi) - math.pi
    # In frame order, so a switch's median sees earlier replacements.
    for j in np.flatnonzero(np.diff(source_bins)):
        recent = delta[max(0, j - _STITCH_MEDIAN_FRAMES):j]
        delta[j] = float(np.median(recent)) if len(recent) else 0.0
    phase = np.cumsum(np.concatenate((raw_phase[:1], delta)))
    return PhaseSequence(phase=phase, source_bins=source_bins, sample_rate=sample_rate)


def track_target(
    cube: RadarCube,
    expected_range: float,
    search_width: int = 2,
) -> PhaseSequence:
    """Follow one target's spectral peak and extract its stitched phase.

    Per frame the bin is the magnitude argmax within ``search_width`` bins
    of the previous frame's bin (seeded from ``expected_range``). Frames
    whose peak stays below 3x the median spectrum level for more than one
    second raise TrackingLostError.
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
    spectra = np.fft.fft(cube.iq, axis=1)
    # One median pass for all frames; it may partition its own magnitudes.
    floor = _SNR_PEAK_FACTOR * np.median(np.abs(spectra), axis=1, overwrite_input=True)
    mags = np.abs(spectra)

    bins = np.empty(cube.n_frames, dtype=int)
    raw = np.empty(cube.n_frames)
    low_snr_run = 0
    max_low_run = int(cube.frame_rate)  # one second
    prev = center
    for i in range(cube.n_frames):
        lo = max(0, prev - search_width)
        hi = min(n_bins, prev + search_width + 1)
        k = lo + int(np.argmax(mags[i, lo:hi]))
        bins[i] = k
        peak = spectra[i, k]
        raw[i] = math.atan2(peak.imag, peak.real)
        prev = k
        if mags[i, k] < floor[i]:
            low_snr_run += 1
            if low_snr_run > max_low_run:
                raise TrackingLostError(
                    f"peak below {_SNR_PEAK_FACTOR}x median spectrum level for "
                    f"more than 1 s around frame {i}"
                )
        else:
            low_snr_run = 0
    return stitch_phase(raw, bins, cube.frame_rate)


def phase_to_displacement(seq: PhaseSequence, wavelength: float) -> ChestMotionTrace:
    """Relative displacement in mm from a stitched phase sequence."""
    disp_m = wavelength * (seq.phase - seq.phase[0]) / (4.0 * np.pi)
    return ChestMotionTrace(
        samples=disp_m * 1000.0,
        sample_rate=seq.sample_rate,
        unit="mm",
    )
