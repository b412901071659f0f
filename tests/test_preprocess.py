import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from hrrkit.preprocess import (
    _BLOCK,
    PASS_HIGH_HZ,
    _steady_state,
    bandpass,
    butter_bandpass_sos,
    difference,
    sosfiltfilt,
)
from hrrkit.signal_model import MIN_SAMPLE_RATE_HZ, ChestMotionTrace

from conftest import tone

FS = 100.0


def trace_of(x, fs=FS):
    return ChestMotionTrace(np.asarray(x, dtype=float), fs)


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def sample_loop(sos, x, zi):
    """Run ``x`` through the cascade one sample at a time, each section in DF2T.

    Sections go two to a pass over the samples; each section's arithmetic is
    that of scipy's sosfilt.
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


def reference_sosfiltfilt(sos, x, padlen):
    """The package's forward-backward filter with the sample loop in place of its blocks."""
    x = np.asarray(x, dtype=float)
    x = np.concatenate((2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2:-(padlen + 2):-1]))
    zi = _steady_state(sos)
    y = sample_loop(sos, x.tolist(), zi * x[0])
    y = sample_loop(sos, y[::-1], zi * y[-1])[::-1]
    return np.array(y[padlen:len(y) - padlen])


class TestBandpass:
    def test_stopband_attenuation_low(self):
        x = tone(0.05, FS, 120.0)
        y = bandpass(trace_of(x)).samples
        assert rms(y) <= 0.1 * rms(x)

    def test_passband_ripple_at_1hz(self):
        x = tone(1.0, FS, 60.0)
        y = bandpass(trace_of(x)).samples
        mid = slice(round(5 * FS), round(55 * FS))
        assert rms(y[mid]) >= 0.89 * rms(x[mid])

    def test_dc_removed(self):
        x = np.full(round(30 * FS), 3.7)
        y = bandpass(trace_of(x)).samples
        assert abs(np.mean(y)) < 1e-3

    def test_measured_attenuation_at_probe_frequencies(self):
        # >= 20 dB at pass_low/4 = 0.05 Hz and at 1.5*pass_high = 5.1 Hz
        for f in (0.05, 5.1):
            x = tone(f, FS, 120.0)
            y = bandpass(trace_of(x)).samples
            mid = slice(round(20 * FS), round(100 * FS))
            atten_db = 20.0 * math.log10(rms(x[mid]) / max(rms(y[mid]), 1e-300))
            assert atten_db >= 20.0, f"{f} Hz attenuated only {atten_db:.1f} dB"

    def test_zero_phase_no_lag(self):
        x = tone(1.3, FS, 40.0)
        y = bandpass(trace_of(x)).samples
        mid = slice(round(5 * FS), round(35 * FS))
        lags = range(-5, 6)
        xc = [float(np.dot(y[mid.start + l : mid.stop + l], x[mid])) for l in lags]
        assert lags[int(np.argmax(xc))] == 0

    def test_pass_band_below_nyquist_at_every_accepted_rate(self):
        # A trace cannot be sampled below MIN_SAMPLE_RATE_HZ, so bandpass
        # needs no Nyquist check of its own.
        assert 2.0 * PASS_HIGH_HZ < MIN_SAMPLE_RATE_HZ
        with pytest.raises(ValueError, match="sample_rate"):
            trace_of(np.zeros(100), fs=2.0 * PASS_HIGH_HZ)

    def test_linearity(self):
        a = tone(0.5, FS, 30.0)
        b = tone(2.0, FS, 30.0, amp=0.3)
        combined = bandpass(trace_of(a + 2.0 * b)).samples
        separate = bandpass(trace_of(a)).samples + 2.0 * bandpass(trace_of(b)).samples
        assert np.allclose(combined, separate, atol=1e-9)


DESIGN_GRID = [
    (fs, band)
    for fs in (20.0, 50.0, 100.0, 200.0, 1000.0)
    for band in ((0.2, 3.4), (0.5, 3.0), (0.1, 8.0))
    if band[1] * 2.0 < fs
]


BANDPASS_SOS = butter_bandpass_sos(0.2, 3.4, FS)


def random_trace(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, 6600) + 3.0 * np.sin(np.arange(6600) / 50.0) + 2.0


class TestMatchesScipy:
    """The numpy design, and the sample loop the block filter is pinned to,
    reproduce scipy's design and filtering bit for bit."""

    @pytest.mark.parametrize("fs,band", DESIGN_GRID)
    def test_design(self, fs, band):
        ref = signal.butter(4, band, btype="bandpass", output="sos", fs=fs)
        assert np.array_equal(butter_bandpass_sos(*band, fs), ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_bandpass_random_traces(self, seed):
        x = random_trace(seed)
        sos = signal.butter(4, (0.2, 3.4), btype="bandpass", output="sos", fs=FS)
        ref = signal.sosfiltfilt(sos, x, padlen=1500)
        assert np.array_equal(reference_sosfiltfilt(BANDPASS_SOS, x, 1500), ref)

    def test_bandpass_short_trace_pads_all_but_one_sample(self):
        x = np.random.default_rng(7).normal(0.0, 1.0, 300)  # padlen = 1500 > 299
        sos = signal.butter(4, (0.2, 3.4), btype="bandpass", output="sos", fs=FS)
        ref = signal.sosfiltfilt(sos, x, padlen=len(x) - 1)
        assert np.array_equal(reference_sosfiltfilt(BANDPASS_SOS, x, len(x) - 1), ref)

    @pytest.mark.parametrize("n,padlen", [(1, 0), (2, 1), (40, 0), (40, 17)])
    def test_sosfiltfilt_pad_lengths(self, n, padlen):
        x = np.random.default_rng(n).normal(0.0, 1.0, n)
        sos = butter_bandpass_sos(0.5, 3.0, 20.0)
        ref = signal.sosfiltfilt(sos, x, padlen=padlen)
        assert np.array_equal(reference_sosfiltfilt(sos, x, padlen), ref)


def assert_near_sample_loop(got, x, sos, padlen):
    """Within 1e-11 of the peak of the sample loop's output, or of the input's
    where that is larger: a rejected input, such as a constant, leaves only
    rounding noise in the output."""
    ref = reference_sosfiltfilt(sos, x, padlen)
    assert got.shape == ref.shape
    scale = max(np.max(np.abs(ref)), np.max(np.abs(x)))
    assert np.max(np.abs(got - ref)) <= 1e-11 * scale


# Input lengths around the block length, each filtered without padding, so
# the passes run exactly that many samples.
BLOCK_LENGTHS = sorted({1, 2, 40, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1,
                        2 * _BLOCK, 2 * _BLOCK + 1, 10 * _BLOCK - 1, 10 * _BLOCK,
                        10 * _BLOCK + 1})


class TestBlockFilter:
    """The block filter matches the sample loop to rounding."""

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_lengths_around_the_block(self, n):
        x = np.random.default_rng(n).normal(0.0, 1.0, n)
        assert_near_sample_loop(sosfiltfilt(BANDPASS_SOS, x, 0), x, BANDPASS_SOS, 0)

    @pytest.mark.parametrize("padlen", [0, 1, 17, 299])
    def test_pad_lengths(self, padlen):
        x = np.random.default_rng(padlen).normal(0.0, 1.0, 300)
        assert_near_sample_loop(sosfiltfilt(BANDPASS_SOS, x, padlen), x, BANDPASS_SOS, padlen)

    def test_constant_input(self):
        x = np.full(3000, 3.7)
        y = sosfiltfilt(BANDPASS_SOS, x, 1500)
        assert_near_sample_loop(y, x, BANDPASS_SOS, 1500)

    @pytest.mark.parametrize("seed", range(5))
    def test_bandpass_random_traces(self, seed):
        x = random_trace(seed)
        assert_near_sample_loop(bandpass(trace_of(x)).samples, x, BANDPASS_SOS, 1500)


class TestDifference:
    def test_constant_maps_to_zeros(self):
        y = difference(trace_of(np.full(500, 2.5))).samples
        assert np.array_equal(y, np.zeros(499))

    def test_tone_gain_closed_form(self):
        # |H(f)| = 2 sin(pi f / fs)
        f = 1.7
        x = tone(f, FS, 60.0)
        y = difference(trace_of(x)).samples
        expected = 2.0 * math.sin(math.pi * f / FS)
        assert rms(y) / rms(x[:-1]) == pytest.approx(expected, rel=1e-2)

    def test_energy_rebalance_ratio(self):
        # equal tones at 0.3 and 2.0 Hz: post-difference amplitude ratio
        # equals gain(2.0)/gain(0.3) ~ 6.65
        g = lambda f: 2.0 * math.sin(math.pi * f / FS)
        assert g(2.0) / g(0.3) == pytest.approx(6.6625, abs=5e-3)
        x = tone(0.3, FS, 60.0) + tone(2.0, FS, 60.0)
        y = difference(trace_of(x)).samples
        spec = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(len(y), d=1.0 / FS)
        a_low = spec[np.argmin(np.abs(freqs - 0.3))]
        a_high = spec[np.argmin(np.abs(freqs - 2.0))]
        assert a_high / a_low == pytest.approx(g(2.0) / g(0.3), rel=0.05)

    def test_length_shrinks_by_one(self):
        y = difference(trace_of(np.arange(100.0)))
        assert len(y.samples) == 99

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            difference(trace_of(np.array([1.0])))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=200,
        )
    )
    def test_invertible_by_cumsum(self, values):
        x = np.asarray(values)
        y = difference(trace_of(x)).samples
        restored = x[0] + np.concatenate(([0.0], np.cumsum(y)))
        assert np.allclose(restored, x, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_commutes_with_scaling(self, c):
        x = tone(0.7, FS, 10.0)
        scaled_first = difference(trace_of(c * x)).samples
        diffed_first = c * difference(trace_of(x)).samples
        assert np.allclose(scaled_first, diffed_first, atol=1e-9)
