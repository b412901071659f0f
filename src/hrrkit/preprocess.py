"""Trace conditioning: vital-band filtering and the energy-rebalancing difference.

The band-pass keeps 0.2-3.4 Hz (just above the 0.167 Hz adult respiratory
floor, and up to 204 bpm, below the 220 bpm detector ceiling) and is
applied forward-backward so peak timing downstream is undistorted. The
first difference then tilts the spectrum, deflating the dominant
low-frequency respiration relative to heartbeat and respiratory-harmonic
content before decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .signal_model import ChestMotionTrace

_FILTER_ORDER = 4  # per band edge; applied twice (forward-backward)


@dataclass(frozen=True)
class FilterSpec:
    """Pass band of the vital-band filter, in Hz."""

    pass_low: float = 0.2
    pass_high: float = 3.4

    def __post_init__(self):
        if not 0 < self.pass_low < self.pass_high:
            raise ValueError(
                f"require 0 < pass_low < pass_high, got "
                f"({self.pass_low}, {self.pass_high})"
            )


def butter_bandpass_sos(low: float, high: float, fs: float) -> np.ndarray:
    """Second-order sections of a Butterworth band-pass, one row per section.

    The analog low-pass prototype is shifted to the pre-warped band and
    mapped to z by the bilinear transform; its zeros at the origin go to
    z = 1 and those at infinity to z = -1. Each section takes one
    upper-half-plane pole with its conjugate, ordered so the pole nearest
    the unit circle comes last, and its two nearest remaining zeros. Rows
    are ``[b0, b1, b2, 1, a1, a2]``; the overall gain sits in section 0.
    """
    order = _FILTER_ORDER
    fs2 = 4.0  # twice the normalized sample rate (Nyquist = 1, fs = 2)
    m = np.arange(-order + 1, order, 2, dtype=float)
    proto = -np.exp(1j * np.pi * m / (2 * order))
    wn = np.asarray([low, high], dtype=float) / (fs / 2)
    warped = fs2 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p_lp = proto * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    poles = (fs2 + p_bp) / (fs2 - p_bp)
    gain = bw**order * np.real(fs2**order / np.prod(fs2 - p_bp))

    upper = poles[poles.imag > 0]
    worst_first = upper[np.argsort(np.abs(1 - np.abs(upper)), kind="stable")]
    zeros = [-1.0] * order + [1.0] * order
    sos = np.zeros((order, 6))
    for si, pole in zip(range(order - 1, -1, -1), worst_first):
        pair = []
        for _ in range(2):
            pair.append(zeros.pop(int(np.argmin(np.abs(np.array(zeros) - pole)))))
        sos[si, :3] = np.poly(pair)
        sos[si, 3:] = np.poly([pole, pole.conjugate()])
    sos[0, :3] *= gain
    return sos


def sosfiltfilt(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Forward-backward run of a biquad cascade over an odd-extended signal.

    Each pass starts every section in the steady state of a step at the
    pass's first sample, so a constant input passes without a transient.
    """
    x = np.asarray(x, dtype=float)
    x = np.concatenate((2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2:-(padlen + 2):-1]))
    zi = _steady_state(sos)
    y = _sosfilt(sos, x.tolist(), zi * x[0])
    y = _sosfilt(sos, y[::-1], zi * y[-1])[::-1]
    return np.array(y[padlen:len(y) - padlen])


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """Per-section filter state once a unit step at the input has settled."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for si, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        zi[si] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos: np.ndarray, x: list, zi: np.ndarray) -> list:
    """Run ``x`` through the cascade, each section in direct form II transposed.

    Sections go two to a pass over the samples, which halves the
    interpreter's per-sample cost; each section's arithmetic is unchanged.
    The band-pass design has one section per prototype pole, so an even
    number of them.
    """
    y = x
    for coeffs, state in zip(sos.reshape(-1, 12).tolist(), zi.reshape(-1, 4).tolist()):
        b0, b1, b2, _, a1, a2, c0, c1, c2, _, d1, d2 = coeffs
        z0, z1, w0, w1 = state
        out = []
        append = out.append
        for u in y:
            v = b0 * u + z0
            z0 = b1 * u - a1 * v + z1
            z1 = b2 * u - a2 * v
            w = c0 * v + w0
            w0 = c1 * v - d1 * w + w1
            w1 = c2 * v - d2 * w
            append(w)
        y = out
    return y


def bandpass(trace: ChestMotionTrace, spec: FilterSpec = FilterSpec()) -> ChestMotionTrace:
    """Zero-phase band-pass of the trace to the vital band.

    Forward-backward 4th-order Butterworth filter; the pad length is sized
    to several periods of the lowest passband frequency so edge transients
    of the high-pass section settle.
    """
    fs = trace.sample_rate
    if spec.pass_high * 2.0 >= fs:
        raise InputError(
            f"pass_high={spec.pass_high} Hz violates Nyquist at "
            f"sample_rate={fs} Hz"
        )
    sos = butter_bandpass_sos(spec.pass_low, spec.pass_high, fs)
    padlen = min(len(trace.samples) - 1, int(3.0 * fs / spec.pass_low))
    filtered = sosfiltfilt(sos, trace.samples, padlen)
    return ChestMotionTrace(filtered, fs, trace.ground_truth)


def difference(trace: ChestMotionTrace) -> ChestMotionTrace:
    """First difference y[i] = x[i+1] - x[i]; output is one sample shorter.

    A tone at frequency f gains amplitude factor 2*sin(pi*f/fs), so
    high-frequency components gain relative energy. Exactly invertible by
    cumulative sum up to the lost constant.
    """
    if len(trace.samples) < 2:
        raise ValueError("difference requires at least 2 samples")
    return ChestMotionTrace(np.diff(trace.samples), trace.sample_rate, trace.ground_truth)
