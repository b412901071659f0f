import itertools

import numpy as np
import pytest

from hrrkit import mode_select
from hrrkit.mode_select import (
    LABEL_HARMONIC,
    LABEL_HEARTBEAT,
    LABEL_NOISE,
    LABEL_RESPIRATION,
    classify_modes,
    peak_frequency,
)
from hrrkit.vmd import ModeSet

from conftest import tone

FS = 100.0
DURATION = 16.0


def make_modeset(freq_amp_pairs, noise_modes=0, seed=0, fs=FS):
    """ModeSet of pure-tone modes (plus optional white-noise modes)."""
    rng = np.random.default_rng(seed)
    modes = [tone(f, fs, DURATION, amp=a, phase=rng.uniform(0, 2 * np.pi))
             for f, a in freq_amp_pairs]
    for _ in range(noise_modes):
        modes.append(rng.normal(0.0, 0.02, round(DURATION * fs)))
    modes = np.asarray(modes)
    signal = modes.sum(axis=0)
    return ModeSet(
        modes=modes,
        center_freqs=np.array([f for f, _ in freq_amp_pairs] + [0.0] * noise_modes),
        input_signal=signal,
        input_energy=float(np.dot(signal, signal)),
        sample_rate=fs,
        converged=True,
        n_iters=1,
    )


class TestPeakFrequency:
    def test_interpolated_tone_accuracy(self):
        x = tone(1.7, FS, 30.0)
        freq, _ = peak_frequency(x, FS)
        assert freq == pytest.approx(1.7, abs=0.02)

    def test_off_grid_tone_accuracy(self):
        x = tone(1.7137, FS, 30.0)
        freq, _ = peak_frequency(x, FS)
        assert freq == pytest.approx(1.7137, abs=0.02)

    def test_white_noise_prominence_below_noise_floor(self):
        for seed in range(20):
            x = np.random.default_rng(seed).normal(size=1600)
            _, prom = peak_frequency(x, FS)
            assert prom < 4.0

    def test_tone_prominence_high(self):
        _, prom = peak_frequency(tone(1.2, FS, DURATION), FS)
        assert prom > 50.0

    def test_flat_spectrum_tie_break_lower_index(self):
        # a unit impulse has an exactly flat magnitude spectrum: every bin
        # ties, and the documented tie-break picks the lowest index
        x = np.zeros(256)
        x[0] = 1.0
        freq, prom = peak_frequency(x, FS)
        assert freq == 0.0
        assert prom == pytest.approx(1.0)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            peak_frequency(np.zeros(256), FS)


class TestClassifyModes:
    def test_spectrum_structure_with_harmonics(self):
        # respiration + four harmonics + heartbeat, energy descending in
        # the respiratory family, heartbeat off the harmonic comb
        ms = make_modeset(
            [(0.4, 1.0), (0.8, 0.6), (1.2, 0.45), (1.6, 0.4), (2.0, 0.35), (2.3,  0.5)]
        )
        labels, hb = classify_modes(ms)
        assert labels[0].label == LABEL_RESPIRATION
        assert [lb.label for lb in labels[1:5]] == [LABEL_HARMONIC] * 4
        assert [lb.harmonic_order for lb in labels[1:5]] == [2, 3, 4, 5]
        assert labels[5].label == LABEL_HEARTBEAT
        assert hb == 5

    def test_coincidence_rule_picks_merged_harmonic(self):
        # heartbeat merged with the 3rd harmonic: among in-band harmonics the
        # highest-energy one is returned as heartbeat
        ms = make_modeset([(0.4, 1.0), (0.8, 0.3), (1.2, 0.8), (1.6, 0.25)])
        labels, hb = classify_modes(ms)
        assert labels[2].label == LABEL_HEARTBEAT
        assert labels[2].harmonic_order == 3  # merged-harmonic marker kept
        assert hb == 2

    def test_pure_two_tone(self):
        ms = make_modeset([(0.3, 1.0), (1.5, 0.4)])
        labels, hb = classify_modes(ms)
        assert labels[0].label == LABEL_RESPIRATION
        assert labels[1].label == LABEL_HEARTBEAT
        assert hb == 1

    def test_noise_modes_rejected(self):
        ms = make_modeset([(0.35, 1.0), (2.2, 0.5)], noise_modes=2)
        labels, hb = classify_modes(ms)
        assert labels[2].label == LABEL_NOISE
        assert labels[3].label == LABEL_NOISE
        assert labels[hb].peak_freq == pytest.approx(2.2, abs=0.05)

    def test_insignificant_peak_is_noise(self):
        # sharp but tiny tone far below the strongest peak
        ms = make_modeset([(0.35, 1.0), (2.2, 0.5), (2.9, 0.05)])
        labels, _ = classify_modes(ms)
        assert labels[2].label == LABEL_NOISE

    def test_no_heartbeat_returns_none(self):
        ms = make_modeset([(0.3, 1.0), (0.5, 0.4)])
        labels, hb = classify_modes(ms)
        assert hb is None
        assert LABEL_HEARTBEAT not in [lb.label for lb in labels]
        assert all(lb.label for lb in labels)

    def test_exactly_one_heartbeat(self):
        ms = make_modeset([(0.4, 1.0), (1.3, 0.5), (2.3, 0.45), (2.8, 0.4)])
        labels, _ = classify_modes(ms)
        assert sum(1 for lb in labels if lb.label == LABEL_HEARTBEAT) == 1

    def test_order_independence(self):
        base = make_modeset([(0.4, 1.0), (0.8, 0.6), (1.2, 0.45), (2.3, 0.5)])
        _, hb0 = classify_modes(base)
        reference = base.modes[hb0]
        for perm in itertools.permutations(range(base.n_modes)):
            ms = ModeSet(
                modes=base.modes[list(perm)],
                center_freqs=base.center_freqs[list(perm)],
                input_signal=base.input_signal,
                input_energy=base.input_energy,
                sample_rate=base.sample_rate,
                converged=True,
                n_iters=1,
            )
            _, hb = classify_modes(ms)
            assert np.array_equal(ms.modes[hb], reference)

    def test_harmonic_soundness(self):
        # a heartbeat clear of every multiple (by > 2*tol*f_resp) is never
        # labeled harmonic, across a sweep of rates
        f_resp, tol = 0.4, 0.08
        for f_heart in np.arange(1.0, 3.2, 0.1):
            n = round(f_heart / f_resp)
            if abs(f_heart - n * f_resp) <= 2 * tol * f_resp:
                continue
            ms = make_modeset([(f_resp, 1.0), (2 * f_resp, 0.5), (f_heart, 0.45)])
            labels, hb = classify_modes(ms)
            assert labels[2].label == LABEL_HEARTBEAT, f"f_heart={f_heart}"
            assert labels[2].harmonic_order is None

    def test_heartbeat_on_a_high_multiple_is_not_a_harmonic(self):
        # At 0.35 Hz breathing, a heartbeat at 7 x 0.35 = 2.45 Hz lies past
        # the bound of 5; a mode at 5 x 0.35 = 1.75 Hz is a harmonic.
        ms = make_modeset([(0.35, 1.0), (1.75, 0.4), (2.45, 0.45)])
        labels, hb = classify_modes(ms)
        assert (labels[1].label, labels[1].harmonic_order) == (LABEL_HARMONIC, 5)
        assert (labels[2].label, labels[2].harmonic_order) == (LABEL_HEARTBEAT, None)
        assert hb == 2

    def test_respiration_band_bounds(self):
        assert mode_select._RESPIRATION_BAND == (0.167, 0.7)
        assert mode_select._HR_BAND == (0.6, 3.4)
