"""Trace conditioning: vital-band filtering and the energy-rebalancing difference.

The band-pass keeps 0.2-3.4 Hz (below adult respiratory floor, above the
220 bpm detector ceiling) and is applied forward-backward so peak timing
downstream is undistorted. The first difference then tilts the spectrum,
deflating the dominant low-frequency respiration relative to heartbeat
and respiratory-harmonic content before decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfiltfilt

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


def bandpass(trace: ChestMotionTrace, spec: FilterSpec = FilterSpec()) -> ChestMotionTrace:
    """Zero-phase band-pass of the trace to the vital band.

    Forward-backward 4th-order recursive filter; the pad length is sized to
    several periods of the lowest passband frequency so edge transients of
    the high-pass section settle.
    """
    fs = trace.sample_rate
    if spec.pass_high * 2.0 >= fs:
        raise ValueError(
            f"pass_high={spec.pass_high} Hz violates Nyquist at "
            f"sample_rate={fs} Hz"
        )
    sos = butter(
        _FILTER_ORDER,
        [spec.pass_low, spec.pass_high],
        btype="bandpass",
        output="sos",
        fs=fs,
    )
    padlen = min(len(trace.samples) - 1, int(3.0 * fs / spec.pass_low))
    filtered = sosfiltfilt(sos, trace.samples, padlen=padlen)
    return ChestMotionTrace(
        samples=filtered,
        sample_rate=fs,
        unit=trace.unit,
        ground_truth=trace.ground_truth,
    )


def difference(trace: ChestMotionTrace) -> ChestMotionTrace:
    """First difference y[i] = x[i+1] - x[i]; output is one sample shorter.

    A tone at frequency f gains amplitude factor 2*sin(pi*f/fs), so
    high-frequency components gain relative energy. Exactly invertible by
    cumulative sum up to the lost constant.
    """
    if len(trace.samples) < 2:
        raise ValueError("difference requires at least 2 samples")
    return ChestMotionTrace(
        samples=np.diff(trace.samples),
        sample_rate=trace.sample_rate,
        unit=trace.unit,
        ground_truth=trace.ground_truth,
    )
