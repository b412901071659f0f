"""Heartbeat-mode identification among decomposition modes.

Classification per window proceeds in frequency-domain terms: modes with
broad spectra and weak peaks are noise; the strongest in-band low-frequency
mode is respiration; modes whose peaks sit at integer multiples of the
respiratory peak, up to ``_HARMONIC_MAX_ORDER``, are harmonics and excluded;
the heartbeat is the strongest remaining in-band peak. When the heart rate
lands exactly on a respiratory multiple the heartbeat and harmonic merge
into one mode, in which case the highest-energy in-band harmonic is taken
as the heartbeat (coincidence rule).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .vmd import ModeSet

LABEL_NOISE = "noise"
LABEL_RESPIRATION = "respiration"
LABEL_HARMONIC = "harmonic"
LABEL_HEARTBEAT = "heartbeat"

_PAD_FACTOR = 4  # zero-padding for peak-frequency interpolation

# Highest multiple of the respiratory peak labelled a harmonic. The paper
# names no bound, but unbounded multiples of a 0.35 Hz fundamental cover
# about a sixth of the HR band, and a recovering heartbeat crossing one was
# taken for a harmonic. Breathing carries little past its 4th.
_HARMONIC_MAX_ORDER = 5

# The labelling rules' thresholds. classify_modes reads them on each call, so
# a caller can rebind them to try other values.
_RESPIRATION_BAND = (0.167, 0.7)   # Hz, 10-42 breaths/min
_HR_BAND = (0.6, 3.4)              # Hz, 36-204 bpm search band
_HARMONIC_TOL = 0.08               # relative to the respiratory fundamental
_NOISE_PROMINENCE = 4.0            # peak/mean magnitude floor
_NOISE_OOB_FRACTION = 0.5          # energy allowed outside the peak band
_PEAK_BAND_HALFWIDTH = 0.3         # Hz, "in-band" width around the peak
_REL_PEAK_FLOOR = 0.2              # vs the strongest mode peak; below is noise


@dataclass
class ModeLabel:
    """Per-mode classification result."""

    mode_index: int
    label: str                      # noise | respiration | harmonic | heartbeat
    peak_freq: float                # Hz
    peak_magnitude: float
    energy: float
    harmonic_order: Optional[int] = None  # n for harmonic(n); kept on a
                                          # coincidence-selected heartbeat too


def peak_frequency(mode: np.ndarray, fs: float) -> tuple[float, float]:
    """Spectral peak location and prominence of one mode.

    The peak frequency comes from the argmax of the zero-padded magnitude
    spectrum refined by 3-point parabolic interpolation; the prominence is
    the unpadded peak-to-mean magnitude ratio. Ties resolve to the
    lowest-index argmax.
    """
    x = np.asarray(mode, dtype=float)
    if not np.any(x):
        raise ValueError("peak_frequency is undefined for an all-zero mode")
    return _peak_frequency(x, fs, np.abs(np.fft.rfft(x)))


def _peak_frequency(x: np.ndarray, fs: float, mag: np.ndarray) -> tuple[float, float]:
    """``peak_frequency`` of a nonzero mode ``x`` with unpadded magnitude ``mag``."""
    prominence = float(mag.max() / mag.mean())

    nfft = _PAD_FACTOR * len(x)
    mag_p = np.abs(np.fft.rfft(x, n=nfft))
    k = int(np.argmax(mag_p))
    if 0 < k < len(mag_p) - 1:
        ym1, y0, yp1 = mag_p[k - 1], mag_p[k], mag_p[k + 1]
        denom = 2.0 * (2.0 * y0 - yp1 - ym1)
        delta = (yp1 - ym1) / denom if denom != 0.0 else 0.0
    else:
        delta = 0.0
    freq = (k + delta) * fs / nfft
    return float(freq), prominence


def _band_energy_fraction(
    mag: np.ndarray, n: int, fs: float, f0: float, halfwidth: float
) -> float:
    """Fraction of the power of an n-sample mode, with unpadded rfft
    magnitude ``mag``, within +-halfwidth of f0."""
    power = mag**2
    # Interior rfft bins represent two conjugate bins of the full spectrum.
    weights = np.full(len(power), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    power = power * weights
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    total = power.sum()
    if total <= 0.0:
        return 0.0
    in_band = power[np.abs(freqs - f0) <= halfwidth].sum()
    return float(in_band / total)


def classify_modes(ms: ModeSet) -> tuple[list[ModeLabel], Optional[int]]:
    """Label every mode and return the labels plus the heartbeat mode index.

    The index is None when no non-noise mode peaks inside the HR band.
    The decision depends only on mode contents, never on their order.
    """
    labels: list[ModeLabel] = []
    energies = ms.mode_energies
    for i in range(ms.n_modes):
        mode = ms.modes[i]
        if not np.any(mode):
            labels.append(ModeLabel(i, LABEL_NOISE, 0.0, 0.0, 0.0))
            continue
        # One unpadded spectrum serves the prominence, the peak magnitude
        # and the in-band power.
        mag = np.abs(np.fft.rfft(mode))
        freq, prom = _peak_frequency(mode, ms.sample_rate, mag)
        spec_peak = float(mag.max())
        in_band = _band_energy_fraction(
            mag, len(mode), ms.sample_rate, freq, _PEAK_BAND_HALFWIDTH
        )
        label = LABEL_NOISE if (
            prom < _NOISE_PROMINENCE or in_band < 1.0 - _NOISE_OOB_FRACTION
        ) else ""
        labels.append(
            ModeLabel(i, label, freq, spec_peak, float(energies[i]))
        )

    # A peak well below the strongest mode's is insignificant regardless of
    # how sharp it looks; such modes are noise too.
    strongest = max((lb.peak_magnitude for lb in labels), default=0.0)
    for lb in labels:
        if not lb.label and lb.peak_magnitude < _REL_PEAK_FLOOR * strongest:
            lb.label = LABEL_NOISE

    candidates = [lb for lb in labels if lb.label != LABEL_NOISE]

    # Respiration: highest-energy non-noise mode peaking in the breathing band.
    lo, hi = _RESPIRATION_BAND
    resp_pool = [lb for lb in candidates if lo <= lb.peak_freq <= hi]
    resp: Optional[ModeLabel] = None
    if resp_pool:
        resp = max(resp_pool, key=lambda lb: (lb.energy, -lb.peak_freq))
        resp.label = LABEL_RESPIRATION

    # Harmonics: peaks at integer multiples 2 <= n <= _HARMONIC_MAX_ORDER of
    # the respiratory peak.
    if resp is not None:
        f_resp = resp.peak_freq
        for lb in candidates:
            if lb.label:
                continue
            n_mult = round(lb.peak_freq / f_resp)
            if (2 <= n_mult <= _HARMONIC_MAX_ORDER
                    and abs(lb.peak_freq - n_mult * f_resp) <= _HARMONIC_TOL * f_resp):
                lb.label = LABEL_HARMONIC
                lb.harmonic_order = int(n_mult)

    hr_lo, hr_hi = _HR_BAND
    remaining = [
        lb for lb in candidates if not lb.label and hr_lo <= lb.peak_freq <= hr_hi
    ]
    chosen: Optional[ModeLabel]
    if remaining:
        chosen = max(remaining, key=lambda lb: (lb.peak_magnitude, lb.energy, lb.peak_freq))
    else:
        # Coincidence rule: the heartbeat merged with a respiratory harmonic;
        # take the highest-energy in-band harmonic.
        merged = [
            lb
            for lb in candidates
            if lb.label == LABEL_HARMONIC and hr_lo <= lb.peak_freq <= hr_hi
        ]
        chosen = max(
            merged, key=lambda lb: (lb.energy, lb.peak_magnitude, lb.peak_freq), default=None
        )
    if chosen is not None:
        chosen.label = LABEL_HEARTBEAT

    for lb in candidates:
        if not lb.label:
            lb.label = LABEL_NOISE
    return labels, None if chosen is None else chosen.mode_index
