"""Synthetic chest-motion signals with known ground truth.

Chest displacement is modeled as the superposition of a non-sinusoidal
quasi-periodic respiration waveform (fundamental plus a handful of
harmonics), a heartbeat waveform whose instantaneous rate follows an
arbitrary trajectory, and additive white Gaussian noise. The heartbeat
phase is obtained by integrating the rate trajectory, so the instantaneous
frequency of the synthesized beat train is exact and the true beat times
are recoverable for evaluation.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError

MIN_RESP_FREQ_HZ = 10.0 / 60.0  # adult respiratory floor, 10 breaths/min
MAX_RESP_HARMONICS = 5          # nonzero harmonics allowed above the fundamental
HR_FLOOR_BPM = 40.0
HR_CEILING_BPM = 220.0
MIN_SAMPLE_RATE_HZ = 20.0       # Nyquist margin above the 3.4 Hz band edge

# Oversampling factor used when integrating the rate trajectory into phase.
_PHASE_OVERSAMPLE = 8


class WaveformShape(enum.Enum):
    SINUSOID = "sinusoid"
    PULSE = "pulse"


@dataclass(frozen=True)
class RespirationModel:
    """Fourier-series respiration waveform.

    ``harmonic_amplitudes[i]`` is the amplitude in mm of the (i+1)-th
    multiple of the fundamental, i.e. index 0 holds the fundamental
    amplitude. The DC term is absent by construction (it would be removed
    by band-pass filtering anyway).
    """

    fundamental_freq: float
    harmonic_amplitudes: tuple[float, ...]
    phase_offset: float = 0.0

    def __post_init__(self):
        # Negated comparisons here and below, so that NaN fails them too.
        if not MIN_RESP_FREQ_HZ <= self.fundamental_freq < math.inf:
            raise ValueError(
                f"fundamental_freq must be finite and >= {MIN_RESP_FREQ_HZ:.4f} Hz "
                f"(10 breaths/min), got {self.fundamental_freq}"
            )
        amps = tuple(float(a) for a in self.harmonic_amplitudes)
        object.__setattr__(self, "harmonic_amplitudes", amps)
        if not amps or not 0 < amps[0] < math.inf:
            raise ValueError(
                "fundamental amplitude (harmonic_amplitudes[0]) must be finite and > 0"
            )
        if not all(math.isfinite(a) for a in amps) or not math.isfinite(self.phase_offset):
            raise ValueError("harmonic amplitudes and phase_offset must be finite")
        n_upper = sum(1 for a in amps[1:] if a != 0.0)
        if n_upper > MAX_RESP_HARMONICS:
            raise ValueError(
                f"at most {MAX_RESP_HARMONICS} nonzero harmonics above the "
                f"fundamental are allowed, got {n_upper}"
            )

    def waveform(self, t: np.ndarray) -> np.ndarray:
        """Displacement in mm at times ``t`` (seconds)."""
        t = np.asarray(t, dtype=float)
        x = np.zeros_like(t)
        base = 2.0 * np.pi * self.fundamental_freq * t + self.phase_offset
        for i, a in enumerate(self.harmonic_amplitudes):
            if a != 0.0:
                x += a * np.cos((i + 1) * base)
        return x


@dataclass(frozen=True)
class ExponentialRecovery:
    """HR(t) = hr_final + (hr_initial - hr_final) * exp(-t / time_constant).

    ``hr_initial == hr_final`` degenerates to a constant rate and is allowed.
    """

    hr_initial: float
    hr_final: float
    time_constant: float

    def __post_init__(self):
        if not self.hr_initial >= self.hr_final > 0:
            raise ValueError(
                f"require hr_initial >= hr_final > 0, got "
                f"({self.hr_initial}, {self.hr_final})"
            )
        if not 0 < self.time_constant < math.inf:
            raise ValueError(f"time_constant must be finite and > 0, got {self.time_constant}")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.hr_final + (self.hr_initial - self.hr_final) * np.exp(
            -t / self.time_constant
        )


@dataclass(frozen=True)
class ConstantRate:
    """Flat HR trajectory."""

    bpm: float

    def __call__(self, t) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.bpm)


@dataclass(frozen=True)
class LinearRamp:
    """HR sliding linearly from start to end over [0, t_end], then flat."""

    start_bpm: float
    end_bpm: float
    t_end: float

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        frac = np.clip(t / self.t_end, 0.0, 1.0)
        return self.start_bpm + (self.end_bpm - self.start_bpm) * frac


@dataclass(frozen=True)
class HeartbeatModel:
    """Heartbeat-induced chest motion with a time-varying rate.

    ``rate_trajectory`` maps time in seconds (scalar or ndarray) to
    instantaneous HR in bpm. The beat phase is the integral of the rate,
    so beats occur exactly where the accumulated phase crosses multiples
    of 2*pi.
    """

    rate_trajectory: Callable[[np.ndarray], np.ndarray]
    amplitude: float
    waveform_shape: WaveformShape = WaveformShape.SINUSOID

    def __post_init__(self):
        if not 0 < self.amplitude < math.inf:
            raise ValueError(f"heartbeat amplitude must be finite and > 0, got {self.amplitude}")

    def phase(self, t: np.ndarray) -> np.ndarray:
        """Accumulated beat phase (radians) on a uniform time grid ``t``."""
        t = np.asarray(t, dtype=float)
        if t.size < 2:
            return np.zeros_like(t)
        # Integrate on an oversampled grid for accuracy, then decimate.
        n_fine = (t.size - 1) * _PHASE_OVERSAMPLE + 1
        t_fine = np.linspace(t[0], t[-1], n_fine)
        rate = np.asarray(self.rate_trajectory(t_fine), dtype=float)
        if not (rate.min() >= HR_FLOOR_BPM and rate.max() <= HR_CEILING_BPM):
            raise InputError(
                f"rate_trajectory must stay within [{HR_FLOOR_BPM:.0f}, "
                f"{HR_CEILING_BPM:.0f}] bpm over the window, got "
                f"[{rate.min():.2f}, {rate.max():.2f}]"
            )
        # Running trapezoid-rule integral of the rate in beats per second.
        beats = rate / 60.0
        steps = np.diff(t_fine) * (beats[1:] + beats[:-1]) / 2.0
        phase_fine = 2.0 * np.pi * np.concatenate(([0.0], np.cumsum(steps)))
        return phase_fine[::_PHASE_OVERSAMPLE]

    def waveform(self, t: np.ndarray) -> np.ndarray:
        """Displacement in mm at times ``t`` (uniform grid, seconds)."""
        theta = self.phase(t)
        if self.waveform_shape is WaveformShape.SINUSOID:
            return self.amplitude * np.cos(theta)
        # Narrow raised-cosine pulse per beat, width 25% of the beat period,
        # peaking exactly at integer beats (theta = 2*pi*k).
        wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
        pulse = np.where(
            np.abs(wrapped) <= np.pi / 4.0,
            0.5 * (1.0 + np.cos(4.0 * wrapped)),
            0.0,
        )
        return self.amplitude * pulse

    def beat_times(self, duration: float, resolution: float = 1e-4) -> np.ndarray:
        """True beat instants (phase crossing 2*pi*k) within [0, duration]."""
        t = np.arange(0.0, duration + resolution, resolution)
        theta = self.phase(t)
        k = np.arange(0.0, theta[-1] / (2.0 * np.pi) + 1.0)
        return np.interp(2.0 * np.pi * k, theta, t)


@dataclass(frozen=True)
class GroundTruth:
    """Generation record attached to a synthetic trace."""

    respiration: Optional[RespirationModel]
    heartbeat: Optional[HeartbeatModel]
    noise_std: float
    seed: int

    def heart_rate_at(self, t) -> np.ndarray:
        if self.heartbeat is None:
            raise ValueError("trace has no heartbeat component")
        return np.asarray(self.heartbeat.rate_trajectory(np.asarray(t, dtype=float)))


@dataclass
class ChestMotionTrace:
    """Uniformly sampled chest displacement in mm, the pipeline's central type."""

    samples: np.ndarray
    sample_rate: float
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not MIN_SAMPLE_RATE_HZ <= self.sample_rate < math.inf:
            raise ValueError(
                f"sample_rate must be finite and >= {MIN_SAMPLE_RATE_HZ} Hz, "
                f"got {self.sample_rate}"
            )

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.sample_rate


def synthesize_trace(
    resp: Optional[RespirationModel],
    heart: Optional[HeartbeatModel],
    noise_std: float,
    sample_rate: float,
    duration: float,
    seed: int,
) -> ChestMotionTrace:
    """Superpose respiration, heartbeat, and noise into a displacement trace.

    Deterministic for a fixed seed. Either component may be None, which
    synthesizes the other in isolation; the sum of the two single-component
    traces equals the combined noiseless trace sample-for-sample.
    """
    if not 0 < duration < math.inf:
        raise InputError(f"duration must be finite and > 0, got {duration}")
    if not MIN_SAMPLE_RATE_HZ <= sample_rate < math.inf:
        raise InputError(
            f"sample_rate must be finite and >= {MIN_SAMPLE_RATE_HZ} Hz, got {sample_rate}"
        )
    n = round(sample_rate * duration)
    if n < 2:
        raise InputError(
            f"{duration} s at {sample_rate} Hz gives {n} sample(s); at least 2 are needed"
        )
    if not 0 <= noise_std < math.inf:
        raise InputError(f"noise_std must be finite and >= 0, got {noise_std}")
    if resp is not None and heart is not None:
        if heart.amplitude >= resp.harmonic_amplitudes[0]:
            raise InputError(
                "heartbeat amplitude must be smaller than the respiration "
                f"fundamental amplitude ({heart.amplitude} >= "
                f"{resp.harmonic_amplitudes[0]})"
            )
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    if resp is not None:
        x = x + resp.waveform(t)
    if heart is not None:
        x = x + heart.waveform(t)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_std, n)
    return ChestMotionTrace(x, sample_rate, GroundTruth(resp, heart, noise_std, seed))


def noise_std_for_snr(
    resp: Optional[RespirationModel],
    heart: Optional[HeartbeatModel],
    snr_db: float,
    sample_rate: float,
    duration: float,
) -> float:
    """Additive-noise sigma that puts the clean displacement's RMS at ``snr_db``.

    A NaN or -inf ``snr_db`` raises InputError: neither gives a noise level.
    """
    if not snr_db > -math.inf:
        raise InputError(f"snr_db must be a number above -inf, got {snr_db}")
    clean = synthesize_trace(resp, heart, 0.0, sample_rate, duration, 0)
    rms = float(np.sqrt(np.mean(clean.samples**2)))
    return rms * 10.0 ** (-snr_db / 20.0)
