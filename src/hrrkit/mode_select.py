"""Heartbeat-mode identification among decomposition modes.

Classification per window proceeds in frequency-domain terms: modes with
broad spectra and weak peaks are noise; the strongest in-band low-frequency
mode is respiration; modes whose peaks sit at integer multiples of the
respiratory peak are harmonics and excluded; the heartbeat is the strongest
remaining in-band peak. When the heart rate lands exactly on a respiratory
multiple the heartbeat and harmonic merge into one mode, in which case the
highest-energy in-band harmonic is taken as the heartbeat (coincidence rule).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoHeartbeatError
from .vmd import ModeSet

LABEL_NOISE = "noise"
LABEL_RESPIRATION = "respiration"
LABEL_HARMONIC = "harmonic"
LABEL_HEARTBEAT = "heartbeat"

_PAD_FACTOR = 4  # zero-padding for peak-frequency interpolation


@dataclass(frozen=True)
class ModeSelectConfig:
    respiration_band: tuple[float, float] = (0.167, 0.7)   # 10-42 breaths/min
    hr_band: tuple[float, float] = (0.6, 3.4)              # 36-204 bpm search band
    harmonic_tol: float = 0.08          # relative to the respiratory fundamental
    noise_prominence: float = 4.0       # peak/mean magnitude floor
    noise_oob_fraction: float = 0.5     # energy allowed outside the peak band
    peak_band_halfwidth: float = 0.3    # Hz, "in-band" width around the peak
    rel_peak_floor: float = 0.2         # vs the strongest mode peak; below is noise

    def __post_init__(self):
        if not 0 < self.respiration_band[0] < self.respiration_band[1]:
            raise ValueError(f"bad respiration_band {self.respiration_band}")
        if not 0 < self.hr_band[0] < self.hr_band[1]:
            raise ValueError(f"bad hr_band {self.hr_band}")
        if not 0 < self.harmonic_tol < 0.5:
            raise ValueError(f"harmonic_tol must be in (0, 0.5), got {self.harmonic_tol}")
        if not self.peak_band_halfwidth > 0:
            raise ValueError(
                f"peak_band_halfwidth must be > 0, got {self.peak_band_halfwidth}"
            )


@dataclass
class ModeLabel:
    """Per-mode classification result."""

    mode_index: int
    label: str                      # noise | respiration | harmonic | heartbeat
    peak_freq: float                # Hz
    peak_magnitude: float
    peak_prominence: float          # peak/mean magnitude ratio
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
    n = len(x)
    mag = np.abs(np.fft.rfft(x))
    prominence = float(mag.max() / mag.mean())

    nfft = _PAD_FACTOR * n
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


def _band_energy_fraction(mode: np.ndarray, fs: float, f0: float, halfwidth: float) -> float:
    """Fraction of the mode's power within +-halfwidth of f0."""
    n = len(mode)
    spec = np.fft.rfft(mode)
    power = np.abs(spec) ** 2
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


def classify_modes(
    ms: ModeSet, config: ModeSelectConfig = ModeSelectConfig()
) -> tuple[list[ModeLabel], int]:
    """Label every mode and return the labels plus the heartbeat mode index.

    Raises NoHeartbeatError when no non-noise mode peaks inside the HR band.
    The decision depends only on mode contents, never on their order.
    """
    labels: list[ModeLabel] = []
    energies = ms.mode_energies
    for i in range(ms.n_modes):
        mode = ms.modes[i]
        if not np.any(mode):
            labels.append(ModeLabel(i, LABEL_NOISE, 0.0, 0.0, 0.0, 0.0))
            continue
        freq, prom = peak_frequency(mode, ms.sample_rate)
        spec_peak = float(np.abs(np.fft.rfft(mode)).max())
        in_band = _band_energy_fraction(mode, ms.sample_rate, freq, config.peak_band_halfwidth)
        label = LABEL_NOISE if (
            prom < config.noise_prominence or in_band < 1.0 - config.noise_oob_fraction
        ) else ""
        labels.append(
            ModeLabel(i, label, freq, spec_peak, prom, float(energies[i]))
        )

    # A peak well below the strongest mode's is insignificant regardless of
    # how sharp it looks; such modes are noise too.
    strongest = max((lb.peak_magnitude for lb in labels), default=0.0)
    for lb in labels:
        if not lb.label and lb.peak_magnitude < config.rel_peak_floor * strongest:
            lb.label = LABEL_NOISE

    candidates = [lb for lb in labels if lb.label != LABEL_NOISE]

    # Respiration: highest-energy non-noise mode peaking in the breathing band.
    lo, hi = config.respiration_band
    resp_pool = [lb for lb in candidates if lo <= lb.peak_freq <= hi]
    resp: Optional[ModeLabel] = None
    if resp_pool:
        resp = max(resp_pool, key=lambda lb: (lb.energy, -lb.peak_freq))
        resp.label = LABEL_RESPIRATION

    # Harmonics: peaks at integer multiples (n >= 2) of the respiratory peak.
    if resp is not None:
        f_resp = resp.peak_freq
        for lb in candidates:
            if lb.label:
                continue
            n_mult = round(lb.peak_freq / f_resp)
            if n_mult >= 2 and abs(lb.peak_freq - n_mult * f_resp) <= config.harmonic_tol * f_resp:
                lb.label = LABEL_HARMONIC
                lb.harmonic_order = int(n_mult)

    hr_lo, hr_hi = config.hr_band
    remaining = [
        lb for lb in candidates if not lb.label and hr_lo <= lb.peak_freq <= hr_hi
    ]
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
        if not merged:
            raise NoHeartbeatError(
                f"no candidate mode peaks inside the HR band "
                f"[{hr_lo}, {hr_hi}] Hz"
            )
        chosen = max(merged, key=lambda lb: (lb.energy, lb.peak_magnitude, lb.peak_freq))
    chosen.label = LABEL_HEARTBEAT

    for lb in candidates:
        if not lb.label:
            lb.label = LABEL_NOISE
    return labels, chosen.mode_index
