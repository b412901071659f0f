import math

import numpy as np
import pytest

from hrrkit import vmd
from hrrkit.config import PipelineConfig
from hrrkit.pipeline import preprocess_trace
from hrrkit.vmd import (
    MERGE_HZ,
    ModeSet,
    energy_loss,
    merge_close_modes,
    mode_correlation_max,
    select_alpha,
    vmd_decompose,
)

from conftest import noisy_recovery, tone

FS = 20.0
DURATION = 38.4  # 768 samples


def two_tone(f1=0.35, f2=1.5, a2=0.7):
    return tone(f1, FS, DURATION, phase=0.3) + tone(f2, FS, DURATION, amp=a2, phase=1.1)


def modeset_from(modes, residual=None, input_signal=None, fs=FS):
    modes = np.asarray(modes, dtype=float)
    if input_signal is None:
        input_signal = modes.sum(axis=0) if residual is None else modes.sum(axis=0) + residual
    return ModeSet(
        modes=modes,
        center_freqs=np.zeros(len(modes)),
        input_signal=np.asarray(input_signal, dtype=float),
        input_energy=float(np.dot(input_signal, input_signal)),
        sample_rate=fs,
        converged=True,
        n_iters=1,
    )


def two_sided_reference(signal, fs, K, alpha):
    """The residual-form sweep over the full two-sided spectrum.

    The negative half is held at zero throughout and each mode is inverted
    after Hermitian completion; the one-sided core must match it. The power
    sums and the stopping sum run over the non-negative bins only.
    """
    f = np.asarray(signal, dtype=float)
    n = len(f)
    m = max(1, round(vmd._MIRROR_FRAC * n))
    ext = np.concatenate([f[:m][::-1], f, f[-m:][::-1]])
    T = len(ext)
    freqs = np.fft.fftfreq(T)
    pos = freqs >= 0.0
    f_plus = np.where(pos, np.fft.fft(ext), 0.0)
    weights = np.stack([np.repeat(freqs[pos], 2), np.ones(2 * np.count_nonzero(pos))])
    u_hat = np.zeros((K, T), dtype=complex)
    omega = (np.arange(K) + 0.5) / K * 0.25
    resid = f_plus
    denom = np.zeros(K)
    converged = False
    for it in range(1, vmd.MAX_ITERS + 1):
        u_prev = u_hat.copy()
        norm = denom.sum()
        gain = 1.0 / (alpha * (freqs - omega[:, None]) ** 2 + 1.0)
        for k in range(K):
            resid = resid + u_prev[k]
            u_hat[k] = resid * gain[k]
            resid = resid - u_hat[k]
        sq = np.square(np.ascontiguousarray(u_hat[:, pos]).view(float))
        first_moment, denom = np.dot(sq, weights.T).T
        live = denom > 1e-300
        omega[live] = first_moment[live] / denom[live]
        parts = np.ascontiguousarray((u_hat - u_prev)[:, pos]).view(float).ravel()
        if np.dot(parts, parts) <= vmd.TOLERANCE * max(norm, 1e-300):
            converged = True
            break
    half = (T - 1) // 2
    modes = np.empty((K, n))
    for k in range(K):
        spec = np.where(pos, u_hat[k], 0.0)
        spec[T - half :] = np.conj(spec[1 : half + 1][::-1])
        modes[k] = np.real(np.fft.ifft(spec))[m : m + n]
    order = np.argsort(np.sum(modes**2, axis=1), kind="stable")[::-1]
    return modes[order], omega[order] * fs, converged, it


def one_sided_setup(signal, fs, K, init_freqs):
    """Mirror extension, swept frequencies, one-sided spectrum and start omega.

    The swept frequencies are the one-sided bins below ``vmd.SWEEP_EDGE_HZ``.
    """
    f = np.asarray(signal, dtype=float)
    n = len(f)
    m = max(1, round(vmd._MIRROR_FRAC * n))
    ext = np.concatenate([f[:m][::-1], f, f[-m:][::-1]])
    T = len(ext)
    P = (T + 1) // 2
    freqs = np.fft.fftfreq(T)[:P]
    f_plus = np.fft.fft(ext)[:P]
    keep = freqs < vmd.SWEEP_EDGE_HZ / fs
    freqs, f_plus = freqs[keep], f_plus[keep]
    if init_freqs is None:
        omega = (np.arange(K) + 0.5) / K * 0.25
    else:
        omega = np.array(init_freqs, dtype=float) / fs
    return n, m, T, freqs, f_plus, omega


def allocating_reference(signal, fs, K, alpha, init_freqs=None, init_spectra=None, record=None):
    """The residual-form sweep, one fresh array per operation.

    ``init_freqs`` holds the starting center frequencies in Hz; None starts
    them uniformly over [0, fs/4]. ``init_spectra`` holds the starting mode
    spectra; None starts them at zero. It sweeps the bins below
    ``vmd.SWEEP_EDGE_HZ``, which the inverse transform pads with zeros, and
    reads ``vmd.TOLERANCE`` and ``vmd.MAX_ITERS`` as the core does. The
    sweeps stop on |u_hat|^2 + |u_prev|^2 - 2 <u_hat, u_prev>,
    the squared change of the spectra from their powers and one dot.
    ``record``, a list, gets each sweep's stopping quantity, the power it is
    measured against and the exact sum of |u_hat - u_prev|^2. The in-place
    core must reproduce it bit for bit.
    """
    n, m, T, freqs, f_plus, omega = one_sided_setup(signal, fs, K, init_freqs)
    P = len(freqs)
    u_hat = np.zeros((K, P), dtype=complex)
    if init_spectra is not None:
        u_hat = np.array(init_spectra, dtype=complex)
    resid = f_plus
    for k in range(K):
        resid = resid - u_hat[k]
    # Each mode's first moment and power, sum f |u_k|^2 and sum |u_k|^2,
    # over re^2 and im^2 side by side.
    weights = np.stack([np.repeat(freqs, 2), np.ones(2 * P)])
    denom = np.dot(np.square(u_hat.view(float)), weights.T)[:, 1]
    converged = False
    it = 0
    for it in range(1, vmd.MAX_ITERS + 1):
        u_prev = u_hat.copy()
        norm = denom.sum()
        gain = 1.0 / (alpha * (freqs - omega[:, None]) ** 2 + 1.0)
        for k in range(K):
            resid = resid + u_prev[k]
            u_hat[k] = resid * gain[k]
            resid = resid - u_hat[k]
        first_moment, denom = np.dot(np.square(u_hat.view(float)), weights.T).T
        live = denom > 1e-300
        omega[live] = first_moment[live] / denom[live]
        cross = np.dot(u_hat.view(float).ravel(), u_prev.view(float).ravel())
        change = denom.sum() + norm - 2.0 * cross
        if record is not None:
            parts = (u_hat - u_prev).view(float).ravel()
            record.append((change, norm, np.dot(parts, parts)))
        if change <= vmd.TOLERANCE * max(norm, 1e-300):
            converged = True
            break
    modes = np.fft.irfft(u_hat, n=T, axis=1)[:, m : m + n]
    order = np.argsort(np.sum(modes**2, axis=1), kind="stable")[::-1]
    return modes[order], omega[order] * fs, converged, it


def literal_reference(signal, fs, K, alpha, init_freqs=None, init_spectra=None):
    """The one-sided sweep in vmdpy's literal form, one fresh array per operation.

    It keeps sum_k u_hat[k] instead of the residual, updates omega_k after
    each mode from np.abs(u_hat[k]) ** 2, and stops on the pairwise sum of
    np.abs(u_hat - u_prev) ** 2. Arguments as for ``allocating_reference``.
    The core differs from it in rounding only.
    """
    n, m, T, freqs, f_plus, omega = one_sided_setup(signal, fs, K, init_freqs)
    P = len(freqs)
    u_hat = np.zeros((K, P), dtype=complex)
    if init_spectra is not None:
        u_hat = np.array(init_spectra, dtype=complex)
    sum_u = np.zeros(P, dtype=complex)
    for k in range(K):
        sum_u = sum_u + u_hat[k]
    converged = False
    it = 0
    for it in range(1, vmd.MAX_ITERS + 1):
        u_prev = u_hat.copy()
        for k in range(K):
            sum_u = sum_u - u_hat[k]
            u_hat[k] = (f_plus - sum_u) / (1.0 + alpha * (freqs - omega[k]) ** 2)
            sum_u = sum_u + u_hat[k]
            power = np.abs(u_hat[k]) ** 2
            denom = power.sum()
            if denom > 1e-300:
                omega[k] = float(np.dot(freqs, power) / denom)
        diff = np.sum(np.abs(u_hat - u_prev) ** 2)
        norm = np.sum(np.abs(u_prev) ** 2)
        if diff <= vmd.TOLERANCE * max(norm, 1e-300):
            converged = True
            break
    modes = np.fft.irfft(u_hat, n=T, axis=1)[:, m : m + n]
    order = np.argsort(np.sum(modes**2, axis=1), kind="stable")[::-1]
    return modes[order], omega[order] * fs, converged, it


def three_tone(n):
    duration = n / FS
    return (
        tone(0.35, FS, duration, phase=0.3)
        + tone(1.5, FS, duration, amp=0.7, phase=1.1)
        + tone(4.0, FS, duration, amp=0.2, phase=0.5)
    )


# (n, alpha, tolerance, max_iters). n = 768 extends to an even T = 922,
# n = 769 to an odd T = 923. Loose tolerances stop in the first sweeps, where
# the norms of u_prev and u_hat still differ enough to move the stopping
# sweep; max_iters = 5 stops unconverged.
IN_PLACE_CASES = (
    [(n, alpha, 1e-7, 500) for n in (768, 769) for alpha in (10.0, 2000.0, 1e6)]
    + [(768, alpha, tol, 500) for alpha in (2000.0, 1e6) for tol in (1e-1, 3e-2, 1e-3)]
    + [(768, 2000.0, 1e-7, 5)]
)
# VMD runs at tau = 0 only since the dual ascent went. Case ids keep the
# "0.0" tau slot they had while tau = 0.1 cases ran beside them, so each
# tau = 0 case is still known by the same id.
TAU_SLOT = "0.0"
IN_PLACE_IDS = [f"{n}-{TAU_SLOT}-{alpha}-{tol}-{iters}" for n, alpha, tol, iters in IN_PLACE_CASES]


class TestInPlaceSweep:
    @pytest.mark.parametrize("n, alpha, tolerance, max_iters", IN_PLACE_CASES, ids=IN_PLACE_IDS)
    def test_matches_allocating_reference_bit_for_bit(self, monkeypatch, n, alpha, tolerance,
                                                       max_iters):
        sig = three_tone(n)
        monkeypatch.setattr(vmd, "TOLERANCE", tolerance)
        monkeypatch.setattr(vmd, "MAX_ITERS", max_iters)
        modes, center_freqs, converged, n_iters = allocating_reference(sig, FS, 4, alpha)
        ms = vmd_decompose(sig, FS, 4, alpha)
        assert ms.n_iters == n_iters and ms.converged == converged
        assert np.array_equal(ms.center_freqs, center_freqs)
        assert np.array_equal(ms.modes, modes)
        if max_iters == 5:
            assert not converged and n_iters == 5

    @pytest.mark.parametrize(
        "init_freqs",
        [
            [4.0, 1.5, 0.35, 0.0],          # descending, one at DC
            [1.5, 1.5, 1.5, 1.5],           # all four on one tone
            [0.3, 2.0, 6.0, FS / 2 - 1e-9],  # one just below Nyquist
        ],
        ids=[f"init_freqs{i}-{TAU_SLOT}" for i in range(3)],
    )
    def test_explicit_init_matches_allocating_reference(self, init_freqs):
        assert_matches_allocating_reference(three_tone(768), FS, 4, 2000.0, init_freqs)


class TestInitFreqs:
    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7])
    def test_none_is_the_uniform_init(self, K):
        sig = three_tone(768)
        # At 20 Hz these Hz values divide back to the normalized ones exactly.
        uniform = (np.arange(K) + 0.5) / K * FS / 4.0
        cold = vmd_decompose(sig, FS, K, 2000.0)
        explicit = vmd_decompose(sig, FS, K, 2000.0, uniform)
        assert (cold.n_iters, cold.converged) == (explicit.n_iters, explicit.converged)
        assert np.array_equal(cold.center_freqs, explicit.center_freqs)
        assert np.array_equal(cold.modes, explicit.modes)

    @pytest.mark.parametrize(
        "init_freqs, match",
        [
            ([0.5, 1.0, 2.0], "K = 4 values"),
            ([0.5, 1.0, 2.0, 3.0, 4.0], "K = 4 values"),
            ([[0.5, 1.0], [2.0, 3.0]], "K = 4 values"),
            ([0.5, math.nan, 2.0, 3.0], "finite"),
            ([0.5, math.inf, 2.0, 3.0], "finite"),
            ([-1e-9, 1.0, 2.0, 3.0], r"\[0, sample_rate/2\)"),
            ([0.5, 1.0, 2.0, FS / 2], r"\[0, sample_rate/2\)"),
        ],
    )
    def test_bad_init_raises_before_any_sweep(self, monkeypatch, init_freqs, match):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("took the spectrum before checking init_freqs")

        monkeypatch.setattr(vmd.np.fft, "fft", no_spectrum)
        with pytest.raises(ValueError, match=match):
            vmd_decompose(three_tone(768), FS, 4, 2000.0, init_freqs)


FREQS_4 = [0.35, 1.5, 4.0, 6.0]


def spectra_cases():
    """Bad ``init_spectra`` for K = 4 on 768 samples (P = 461 bins), with the error they raise."""
    good = np.ones((4, 461), dtype=complex)
    nan, inf = good.copy(), good.copy()
    nan[2, 100] = complex(math.nan, 0.0)
    inf[0, 0] = complex(0.0, math.inf)
    shape = r"shape \(K, P\) = \(4, 461\)"
    return [
        (None, good, "init_spectra needs init_freqs"),
        (FREQS_4, good[:3], shape),
        (FREQS_4, np.ones((4, 462), dtype=complex), shape),
        (FREQS_4, good[0], shape),
        (FREQS_4, nan, "non-finite"),
        (FREQS_4, inf, "non-finite"),
    ]


class TestInitSpectra:
    @pytest.mark.parametrize(
        "start", ["other_alpha", "random"], ids=lambda start: f"{start}-{TAU_SLOT}"
    )
    def test_matches_allocating_reference(self, start):
        sig = three_tone(768)
        if start == "other_alpha":
            prev = vmd_decompose(sig, FS, 4, 1500.0)
            order = np.argsort(prev.center_freqs, kind="stable")
            init_freqs, init_spectra = prev.center_freqs[order], prev.spectra[order]
        else:
            rng = np.random.default_rng(3)
            init_freqs = FREQS_4
            init_spectra = rng.normal(size=(4, 461)) + 1j * rng.normal(size=(4, 461))
        assert_matches_allocating_reference(sig, FS, 4, 2000.0, init_freqs, init_spectra)

    @pytest.mark.parametrize("init_freqs, init_spectra, match", spectra_cases())
    def test_bad_init_spectra_raises_before_any_sweep(
        self, monkeypatch, init_freqs, init_spectra, match
    ):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("took the spectrum before checking init_spectra")

        monkeypatch.setattr(vmd.np.fft, "fft", no_spectrum)
        with pytest.raises(ValueError, match=match):
            vmd_decompose(three_tone(768), FS, 4, 2000.0, init_freqs, init_spectra)

    def test_restart_from_converged_decomposition_stops_within_two_sweeps(self, monkeypatch):
        # Every step of a benchmark window's search, decomposed cold, then
        # restarted at its own alpha from its own center frequencies and spectra.
        sig, fs, cfg = relaxed_recovery_window()
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        for alpha, _, _ in select_alpha(sig, fs, cfg).path:
            ms = vmd_decompose(sig, fs, cfg.k_modes, alpha)
            assert ms.converged
            again = vmd_decompose(sig, fs, cfg.k_modes, alpha, ms.center_freqs, ms.spectra)
            assert again.converged and again.n_iters <= 2

    def test_spectra_go_along_on_close_steps_only(self, monkeypatch):
        sig, fs, cfg = relaxed_recovery_window()
        calls = []
        decompose = vmd.vmd_decompose

        def recording(signal, sample_rate, K, alpha, init_freqs=None, init_spectra=None):
            calls.append((alpha, init_freqs is not None, init_spectra is not None))
            return decompose(signal, sample_rate, K, alpha, init_freqs, init_spectra)

        monkeypatch.setattr(vmd, "vmd_decompose", recording)
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        select_alpha(sig, fs, cfg)
        alphas = [alpha for alpha, _, _ in calls]
        ratios = [max(a / b, b / a) for a, b in zip(alphas[1:], alphas)]
        assert [round(r, 2) for r in ratios] == [17.78, 4.22, 2.05, 1.43, 1.2, 1.09]
        assert [warm_freqs for _, warm_freqs, _ in calls] == [False] + [True] * 6
        assert [warm_spectra for _, _, warm_spectra in calls] == [False] * 4 + [True] * 3


def assert_matches_allocating_reference(sig, fs, K, alpha, init_freqs=None, init_spectra=None):
    modes, center_freqs, converged, n_iters = allocating_reference(
        sig, fs, K, alpha, init_freqs, init_spectra
    )
    ms = vmd_decompose(sig, fs, K, alpha, init_freqs, init_spectra)
    assert ms.n_iters == n_iters and ms.converged == converged
    assert np.array_equal(ms.center_freqs, center_freqs)
    assert np.array_equal(ms.modes, modes)
    return ms


def tie_tolerances(signal, K, alpha, sweeps):
    """Tolerances that put the stopping threshold on a sweep's stopping quantity.

    Runs the allocating reference for ``sweeps`` sweeps and, for each of
    sweeps 2 onwards whose ratio of stopping quantity to power is below
    every earlier one, returns that ratio: with it as the tolerance, the
    threshold at that sweep is within an ulp or so of the stopping quantity.
    """
    record = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vmd, "TOLERANCE", 1e-300)
        mp.setattr(vmd, "MAX_ITERS", sweeps)
        allocating_reference(signal, FS, K, alpha, record=record)
    tolerances, lowest = [], math.inf
    for change, norm, _ in record[1:]:   # the first sweep's u_prev is all zero
        ratio = change / norm
        if ratio < lowest:
            tolerances.append(float(ratio))
            lowest = ratio
    return tolerances


def assert_agrees_with_literal_sweep(sig, fs, K, alpha, init_freqs=None, init_spectra=None):
    """The core stops where the literal sweep does, and differs only in rounding.

    Modes within 1e-12 of their largest magnitude, center frequencies within
    1e-12 relative. Where the iteration itself magnifies rounding, the
    modes' bound widens by ten times how far the literal sweep's own modes
    move when its start frequencies move by one ulp.
    """
    modes, center_freqs, converged, n_iters = literal_reference(
        sig, fs, K, alpha, init_freqs, init_spectra
    )
    ms = vmd_decompose(sig, fs, K, alpha, init_freqs, init_spectra)
    assert (ms.n_iters, ms.converged) == (n_iters, converged)
    assert np.max(np.abs(ms.center_freqs - center_freqs)) <= 1e-12 * np.max(center_freqs)
    start = (np.arange(K) + 0.5) / K * fs / 4.0 if init_freqs is None else init_freqs
    nudged, *_ = literal_reference(sig, fs, K, alpha, np.asarray(start) * (1.0 + 2.0**-52),
                                   init_spectra)
    spread = np.max(np.abs(nudged - modes))
    assert np.max(np.abs(ms.modes - modes)) <= 1e-12 * np.max(np.abs(modes)) + 10.0 * spread
    return ms


class TestSweepBand:
    """``vmd.SWEEP_EDGE_HZ`` limits the sweeps to the bins below it."""

    # n = 768 extends to T = 922 bins, n = 769 to T = 923. At 20 Hz, 6 Hz
    # keeps 277 of 461 bins and 4.0 Hz cuts right through the 4 Hz tone.
    @pytest.mark.parametrize("n", [768, 769])
    @pytest.mark.parametrize("edge", [6.0, 4.0, 1.0], ids=lambda f: f"{f}-{TAU_SLOT}")
    def test_matches_allocating_reference(self, monkeypatch, n, edge):
        monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", edge)
        assert_matches_allocating_reference(three_tone(n), FS, 4, 2000.0)

    def test_warm_start_matches_allocating_reference(self, monkeypatch):
        monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", 6.0)
        sig = three_tone(768)
        prev = vmd_decompose(sig, FS, 4, 1500.0)
        order = np.argsort(prev.center_freqs, kind="stable")
        assert_matches_allocating_reference(
            sig, FS, 4, 2000.0, prev.center_freqs[order], prev.spectra[order]
        )

    @pytest.mark.parametrize("n", [768, 769])
    @pytest.mark.parametrize("edge", [FS / 2, FS / 2 + 1e-9, 25.0, 1e300])
    def test_edge_at_or_above_nyquist_keeps_every_bin(self, monkeypatch, n, edge):
        sig = three_tone(n)
        monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", math.inf)
        full = vmd_decompose(sig, FS, 4, 2000.0)
        assert full.spectra.shape == (4, (len(sig) + 2 * round(0.1 * n) + 1) // 2)
        monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", edge)
        at_edge = vmd_decompose(sig, FS, 4, 2000.0)
        assert (at_edge.n_iters, at_edge.converged) == (full.n_iters, full.converged)
        assert np.array_equal(at_edge.center_freqs, full.center_freqs)
        assert np.array_equal(at_edge.modes, full.modes)
        assert np.array_equal(at_edge.spectra, full.spectra)

    def test_tone_above_edge_goes_to_the_residual(self, monkeypatch):
        monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", 6.0)
        sig = three_tone(768)
        high = tone(8.0, FS, DURATION, amp=0.3, phase=0.7)
        mixed = sig + high
        ms = vmd_decompose(mixed, FS, 3, 2000.0)
        share = np.dot(high, high) / np.dot(mixed, mixed)
        # The three in-band tones alone leave about 1e-3 of their energy.
        assert energy_loss(ms) == pytest.approx(share, rel=0.03)
        assert np.corrcoef(mixed - ms.modes.sum(axis=0), high)[0, 1] > 0.99
        assert np.all(ms.center_freqs < 6.0)

    def test_spectra_cover_the_band_only(self, monkeypatch):
        # 768 samples extend to T = 922: bins k / 922 * 20 Hz below 6 Hz are
        # k = 0..276.
        monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", 6.0)
        ms = vmd_decompose(three_tone(768), FS, 4, 2000.0)
        assert ms.spectra.shape == (4, 277)
        with pytest.raises(ValueError, match=r"shape \(K, P\) = \(4, 277\)"):
            vmd_decompose(three_tone(768), FS, 4, 2000.0,
                          FREQS_4, np.ones((4, 461), dtype=complex))


class TestStoppingRule:
    """The stopping test from the powers and one BLAS dot, against its references."""

    def test_threshold_on_the_exact_sum(self, monkeypatch):
        # Each tolerance puts a sweep's threshold on the core's stopping
        # quantity, which allocating_reference takes the same way.
        sig = three_tone(768)
        tolerances = tie_tolerances(sig, 4, 2000.0, 40)
        assert len(tolerances) >= 20
        for tol in tolerances:
            monkeypatch.setattr(vmd, "TOLERANCE", tol)
            assert_matches_allocating_reference(sig, FS, 4, 2000.0)

    def test_benchmark_window_on_its_alpha_path(self, monkeypatch):
        # Each step starts where select_alpha starts it: the first cold, the
        # rest from the step before, as warm_start gives it.
        sig, fs, cfg = relaxed_recovery_window()
        assert (cfg.k_modes, fs, len(sig)) == (6, 100.0, 1600)
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        path = select_alpha(sig, fs, cfg).path
        assert len(path) == 7
        ms = prev_alpha = None
        for alpha, _, _ in path:
            ms = assert_matches_allocating_reference(
                sig, fs, cfg.k_modes, alpha, *warm_start(ms, prev_alpha, alpha)
            )
            prev_alpha = alpha

    def test_stopping_quantity_near_the_exact_sum_on_the_benchmark_alpha_path(self, monkeypatch):
        # The powers-and-dot form cancels near convergence. On every sweep
        # of the 7 steps (1,301 sweeps) it stays within 64 eps of the power
        # of the exact sum of |u_hat - u_prev|^2: below 1.5e-7 of the
        # threshold at the default tolerance. Measured: at most 7.8 eps, 1.7
        # eps in the median.
        sig, fs, cfg = relaxed_recovery_window()
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        path = select_alpha(sig, fs, cfg).path
        assert len(path) == 7
        eps = np.finfo(float).eps
        ms = prev_alpha = None
        for alpha, _, _ in path:
            record = []
            init = warm_start(ms, prev_alpha, alpha)
            allocating_reference(sig, fs, cfg.k_modes, alpha, *init, record=record)
            for change, norm, exact in record[1:]:
                assert abs(change - exact) <= 64.0 * eps * norm
            ms = vmd_decompose(sig, fs, cfg.k_modes, alpha, *init)
            prev_alpha = alpha
        assert 64.0 * eps < 1.5e-7 * vmd.TOLERANCE

    @pytest.mark.parametrize("n, alpha, tolerance, max_iters", IN_PLACE_CASES, ids=IN_PLACE_IDS)
    def test_exact_sum_on_every_sweep(self, monkeypatch, n, alpha, tolerance, max_iters):
        # The literal sweep stops on the exact sum of np.abs(delta) ** 2,
        # taken on every sweep; the core's dot stops at the same sweep.
        monkeypatch.setattr(vmd, "TOLERANCE", tolerance)
        monkeypatch.setattr(vmd, "MAX_ITERS", max_iters)
        assert_agrees_with_literal_sweep(three_tone(n), FS, 4, alpha)

    def test_literal_sweep_on_the_benchmark_alpha_path(self, monkeypatch):
        sig, fs, cfg = relaxed_recovery_window()
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        path = select_alpha(sig, fs, cfg).path
        assert len(path) == 7
        ms = prev_alpha = None
        for alpha, _, _ in path:
            ms = assert_agrees_with_literal_sweep(
                sig, fs, cfg.k_modes, alpha, *warm_start(ms, prev_alpha, alpha)
            )
            prev_alpha = alpha

    def test_threshold_below_underflow_floor(self):
        sig = three_tone(768) * 1e-150
        # Every sweep's threshold is at most tolerance times the spectral
        # power, below 1e-250: the squares of the change's small parts
        # underflow.
        assert vmd.TOLERANCE * np.sum(np.abs(np.fft.fft(sig)) ** 2) < 1e-250
        assert_matches_allocating_reference(sig, FS, 4, 2000.0)


class TestSpectrumConvention:
    # n = 768 extends to an even T = 922 (Nyquist bin present), n = 769 to
    # an odd T = 923.
    @pytest.mark.parametrize("n", [768, 769], ids=lambda n: f"{TAU_SLOT}-{n}")
    def test_one_sided_core_matches_two_sided_reference(self, n):
        duration = n / FS
        sig = (
            tone(0.35, FS, duration, phase=0.3)
            + tone(1.5, FS, duration, amp=0.7, phase=1.1)
            + tone(4.0, FS, duration, amp=0.2, phase=0.5)
        )
        assert len(sig) == n
        modes, center_freqs, converged, n_iters = two_sided_reference(sig, FS, 3, 2000.0)
        ms = vmd_decompose(sig, FS, 3, 2000.0)
        assert ms.n_iters == n_iters and ms.converged == converged
        assert np.array_equal(ms.center_freqs, center_freqs)
        assert np.max(np.abs(ms.modes - modes)) <= 1e-12 * np.max(np.abs(modes))


class TestDecompose:
    def test_pure_tone_single_mode(self):
        sig = tone(1.0, FS, DURATION)
        ms = vmd_decompose(sig, FS, 2, 200.0)
        energies = ms.mode_energies
        main = int(np.argmax(energies))
        assert energies[main] / energies.sum() >= 0.99
        assert abs(ms.center_freqs[main] - 1.0) < 0.05

    def test_two_tone_recovery(self):
        sig = two_tone()
        ms = vmd_decompose(sig, FS, 2, 200.0)
        freqs = np.sort(ms.center_freqs)
        assert freqs == pytest.approx([0.35, 1.5], abs=0.05)
        for f, amp, ph in ((0.35, 1.0, 0.3), (1.5, 0.7, 1.1)):
            k = int(np.argmin(np.abs(ms.center_freqs - f)))
            src = tone(f, FS, DURATION, amp=amp, phase=ph)
            assert abs(np.corrcoef(ms.modes[k], src)[0, 1]) > 0.99

    def test_zero_signal(self):
        ms = vmd_decompose(np.zeros(256), FS, 3, 500.0)
        assert np.array_equal(ms.modes, np.zeros_like(ms.modes))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="length"):
            vmd_decompose(np.ones(32), FS, 6, 2000.0)

    def test_rejects_non_finite(self):
        bad = np.ones(128)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            vmd_decompose(bad, FS, 6, 2000.0)

    def test_termination_recorded(self, monkeypatch):
        ms = vmd_decompose(two_tone(), FS, 2, 200.0)
        assert ms.converged and 1 <= ms.n_iters <= 500
        monkeypatch.setattr(vmd, "MAX_ITERS", 3)
        ms2 = vmd_decompose(two_tone(), FS, 2, 200.0)
        assert not ms2.converged and ms2.n_iters == 3

    def test_mode_narrowbandedness(self):
        ms = vmd_decompose(two_tone(), FS, 2, 200.0)
        n = ms.modes.shape[1]
        freqs = np.fft.rfftfreq(n, d=1.0 / FS)
        for k in range(2):
            power = np.abs(np.fft.rfft(ms.modes[k])) ** 2
            in_band = power[np.abs(freqs - ms.center_freqs[k]) <= 0.3].sum()
            assert in_band / power.sum() >= 0.9


class TestGateDiagnostics:
    def test_identical_modes_fully_correlated(self):
        x = tone(0.8, FS, 12.8)
        ms = modeset_from([x, x])
        assert mode_correlation_max(ms) == pytest.approx(1.0)

    def test_orthogonal_quadrature_pair(self):
        t = np.arange(round(10 * FS)) / FS  # whole periods of 0.5 Hz
        ms = modeset_from([np.sin(2 * np.pi * 0.5 * t), np.cos(2 * np.pi * 0.5 * t)])
        assert mode_correlation_max(ms) < 1e-10

    def test_correlation_matches_definitional_oracle(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(3, 32))
        ms = modeset_from(u)
        # direct summation of r_ij = (E(ui uj) - E(ui)E(uj)) / sqrt(D(ui) D(uj))
        best = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                e_ij = sum(u[i, k] * u[j, k] for k in range(32)) / 32
                e_i = sum(u[i]) / 32
                e_j = sum(u[j]) / 32
                d_i = sum((v - e_i) ** 2 for v in u[i]) / 32
                d_j = sum((v - e_j) ** 2 for v in u[j]) / 32
                best = max(best, abs((e_ij - e_i * e_j) / math.sqrt(d_i * d_j)))
        assert mode_correlation_max(ms) == pytest.approx(best, abs=1e-12)

    def test_fewer_than_two_live_modes_gives_zero(self):
        x = tone(0.8, FS, 12.8)
        ms = modeset_from([x, np.zeros_like(x)])
        assert mode_correlation_max(ms) == 0.0

    def test_energy_loss_zero_residual(self):
        x = two_tone()
        ms = modeset_from([x], residual=np.zeros_like(x), input_signal=x)
        assert energy_loss(ms) == 0.0

    def test_energy_loss_half_mode(self):
        x = two_tone()
        ms = modeset_from([x / 2.0], input_signal=x)
        assert energy_loss(ms) == pytest.approx(0.25, abs=1e-12)

    def test_energy_loss_matches_norm_oracle(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=128)
        u = rng.normal(size=(2, 128)) * 0.4
        ms = modeset_from(u, input_signal=f)
        expected = float(np.dot(f - u.sum(axis=0), f - u.sum(axis=0)) / np.dot(f, f))
        assert energy_loss(ms) == pytest.approx(expected, abs=1e-12)

    def test_energy_loss_rejects_zero_input(self):
        z = np.zeros(64)
        ms = modeset_from([z], input_signal=z)
        with pytest.raises(ValueError, match="zero-energy"):
            energy_loss(ms)


def tone_modeset(freqs, amps, spectra_bins=16):
    """Tones at ``freqs`` Hz with amplitudes ``amps`` as a ModeSet in that
    order, their center frequencies set to ``freqs``, plus noise in the
    residual and random spectra rows."""
    rng = np.random.default_rng(7)
    modes = np.array([tone(f, FS, DURATION, amp=a, phase=f) for f, a in zip(freqs, amps)])
    ms = modeset_from(modes, residual=0.01 * rng.standard_normal(modes.shape[1]))
    ms.center_freqs = np.array(freqs, dtype=float)
    ms.spectra = (rng.standard_normal((len(freqs), spectra_bins))
                  + 1j * rng.standard_normal((len(freqs), spectra_bins)))
    return ms


class TestMergeCloseModes:
    # Mode 1 at 1.0 Hz, 3 at 1.1 and 2 at 1.2 chain at 0.15 Hz, though 1.0
    # and 1.2 are 0.2 Hz apart; modes 0 and 4 stand alone.
    FREQS = [0.35, 1.0, 1.2, 1.1, 2.5]
    AMPS = [1.0, 0.5, 0.2, 0.4, 0.1]

    def test_chain_of_close_neighbours_merges_into_one_mode(self):
        ms = tone_modeset(self.FREQS, self.AMPS)
        merged = merge_close_modes(ms, 0.15)
        assert merged.n_modes == 3
        assert merged.merged_from == ((0,), (1, 2, 3), (4,))
        assert np.array_equal(merged.modes[1], ms.modes[[1, 3, 2]].sum(axis=0))
        assert np.array_equal(merged.modes[[0, 2]], ms.modes[[0, 4]])
        assert np.array_equal(merged.center_freqs[[0, 2]], [0.35, 2.5])
        assert (merged.converged, merged.n_iters) == (ms.converged, ms.n_iters)
        # No search step starts from a merged set, so it carries no spectra.
        assert ms.spectra is not None and merged.spectra is None

    def test_merged_center_frequency_is_energy_weighted(self):
        ms = tone_modeset(self.FREQS, self.AMPS)
        energies = ms.mode_energies[[1, 2, 3]]
        expected = np.dot(energies, [1.0, 1.2, 1.1]) / energies.sum()
        center = merge_close_modes(ms, 0.15).center_freqs[1]
        assert center == pytest.approx(expected, rel=1e-12)
        assert center != pytest.approx(np.mean([1.0, 1.2, 1.1]), rel=1e-3)

    def test_merge_keeps_the_energy_loss(self):
        ms = tone_modeset(self.FREQS, self.AMPS)
        merged = merge_close_modes(ms, 0.15)
        assert energy_loss(merged) == pytest.approx(energy_loss(ms), rel=1e-9)

    def test_modes_come_back_ordered_by_energy(self):
        # The chain outweighs the 0.35 Hz mode once summed.
        ms = tone_modeset(self.FREQS, [0.6, 0.5, 0.2, 0.4, 0.1])
        merged = merge_close_modes(ms, 0.15)
        assert merged.merged_from == ((1, 2, 3), (0,), (4,))
        assert np.all(np.diff(merged.mode_energies) <= 0)

    def test_a_split_pair_no_longer_fails_the_correlation_gate(self):
        ms = tone_modeset([0.35, 2.17, 2.18], [1.0, 0.2, 0.2])
        assert mode_correlation_max(ms) > 0.2
        assert mode_correlation_max(merge_close_modes(ms, 0.15)) <= 0.2

    @pytest.mark.parametrize("width_hz", [0.0, 0.05, 0.09])
    def test_nothing_within_the_width_comes_back_unchanged(self, width_hz):
        ms = tone_modeset(self.FREQS, self.AMPS)
        merged = merge_close_modes(ms, width_hz)
        assert merged is ms
        assert merged.merged_from is None


def warm_start(prev_ms, prev_alpha, alpha):
    """The ``(init_freqs, init_spectra)`` a search step at ``alpha`` starts from.

    After ``prev_ms``, decomposed at ``prev_alpha``: its center frequencies
    sorted ascending, and its spectra in the same order only when the two
    alphas are within a factor of 1.5. ``(None, None)`` for the first step.
    """
    if prev_ms is None:
        return None, None
    init_freqs = np.sort(prev_ms.center_freqs)
    if max(alpha / prev_alpha, prev_alpha / alpha) > 1.5:
        return init_freqs, None
    return init_freqs, prev_ms.spectra[np.argsort(prev_ms.center_freqs, kind="stable")]


class ReferenceInfeasible(Exception):
    """The raising reference's exhausted search and its least-violating attempt."""

    def __init__(self, best_r_max, best_p, best_alpha, best_modeset):
        super().__init__("alpha search exhausted")
        self.best_r_max = best_r_max
        self.best_p = best_p
        self.best_alpha = best_alpha
        self.best_modeset = best_modeset


def raising_reference(signal, sample_rate, cfg, alphas,
                      alpha_range=(10.0, 1e6), ratio_tol=1.1, merge_hz=None):
    """The alpha search as it was when exhaustion raised; test-only.

    Returns ``(alpha, modes)`` of the first feasible decomposition, raises
    ReferenceInfeasible with the least-violating attempt once the bracket is
    exhausted, and appends every tried alpha to ``alphas``. Each step after
    the first starts from the step before, as ``warm_start`` gives it. With
    ``merge_hz`` set, the gates judge, and the search returns, each
    decomposition's ``merge_close_modes`` set, while the next step still
    starts from the unmerged one. ``select_alpha`` must reproduce it bit for
    bit.
    """
    lo, hi = alpha_range
    best_r, best_p = math.inf, math.inf
    best = None
    ms = prev_alpha = None

    def violation(r, p):
        return max(r / cfg.mu1 - 1.0, 0.0) + (
            max(p / cfg.mu2 - 1.0, 0.0) if cfg.mu2 > 0 else math.inf
        )

    while True:
        mid = math.sqrt(lo * hi)
        init_freqs, init_spectra = warm_start(ms, prev_alpha, mid)
        ms = vmd_decompose(signal, sample_rate, cfg.k_modes, mid,
                           init_freqs=init_freqs, init_spectra=init_spectra)
        prev_alpha = mid
        gated = ms if merge_hz is None else merge_close_modes(ms, merge_hz)
        r = mode_correlation_max(gated)
        p = energy_loss(gated)
        alphas.append(mid)
        if best is None or violation(r, p) < violation(best_r, best_p):
            best_r, best_p, best = r, p, (mid, gated)
        if r <= cfg.mu1 and p <= cfg.mu2:
            return mid, gated
        if p > cfg.mu2:
            hi = mid
        else:
            lo = mid
        if hi / lo < ratio_tol:
            raise ReferenceInfeasible(best_r, best_p, best[0], best[1])


def recovery_window(start_s):
    """The 16 s analysis window of recovery seed 120 from ``start_s``."""
    prepared = preprocess_trace(noisy_recovery(120))
    fs = prepared.sample_rate
    first = round(start_s * fs)
    return prepared.samples[first : first + round(16.0 * fs)], fs, PipelineConfig()


def relaxed_recovery_window():
    """The first analysis window of recovery seed 120. Its heartbeat splits,
    so the paper's search (``MERGE_HZ = 0``) runs all 7 steps and relaxes its
    gates; merged, the first step passes."""
    return recovery_window(0.0)


SEARCH_CASES = {
    "feasible_two_tone": lambda: (two_tone(), FS, PipelineConfig(k_modes=2)),
    "zero_energy_gate": lambda: (two_tone(), FS, PipelineConfig(k_modes=2, mu2=0.0)),
    "relaxed_recovery_window": relaxed_recovery_window,
}


def chosen_step(search):
    """The ``(alpha, r_max, p)`` entry of the search's chosen decomposition."""
    return search.path[[alpha for alpha, _, _ in search.path].index(search.alpha)]


def assert_matches_raising_reference(case, **kwargs):
    """Run ``select_alpha`` on a search case, with ``kwargs``, and check it
    against ``raising_reference`` bit for bit; return the search."""
    signal, fs, cfg = SEARCH_CASES[case]()
    search = select_alpha(signal, fs, cfg, **kwargs)
    ref_alphas = []
    try:
        alpha, modes = raising_reference(signal, fs, cfg, ref_alphas)
        raised = False
    except ReferenceInfeasible as exc:
        alpha, modes = exc.best_alpha, exc.best_modeset
        assert chosen_step(search)[1:] == (exc.best_r_max, exc.best_p)
        raised = True
    assert search.feasible == (not raised) == (case == "feasible_two_tone")
    assert search.alpha == alpha
    assert np.array_equal(search.modes.modes, modes.modes)
    assert np.array_equal(search.modes.center_freqs, modes.center_freqs)
    # The window stage used to recompute both diagnostics on the chosen modes.
    assert chosen_step(search) == (alpha, mode_correlation_max(modes), energy_loss(modes))
    assert [a for a, _, _ in search.path] == ref_alphas
    return search


class TestSelectAlpha:
    def test_returned_decomposition_passes_gates(self):
        cfg = PipelineConfig(k_modes=2)
        ms = select_alpha(two_tone(), FS, cfg).modes
        assert mode_correlation_max(ms) <= cfg.mu1
        assert energy_loss(ms) <= cfg.mu2

    def test_default_gate_values(self):
        cfg = PipelineConfig()
        assert cfg.mu1 == 0.2 and cfg.mu2 == 1e-4

    def test_impossible_energy_gate_is_infeasible(self):
        search = select_alpha(two_tone(), FS, PipelineConfig(k_modes=2, mu2=0.0))
        assert not search.feasible
        assert chosen_step(search)[2] > 0.0

    def test_infeasible_search_carries_best_attempt(self):
        search = select_alpha(two_tone(), FS, PipelineConfig(k_modes=2, mu2=0.0))
        assert not search.feasible
        assert search.alpha in [alpha for alpha, _, _ in search.path]
        assert energy_loss(search.modes) == chosen_step(search)[2]
        assert search.modes.n_modes == 2

    def test_search_cost_bounded(self):
        search = select_alpha(two_tone(), FS, PipelineConfig(k_modes=2))
        budget = math.ceil(math.log2(math.log(1e6 / 10.0) / math.log(1.1))) + 1
        assert len(search.path) <= budget

    # A merge width of 0 is the published search.
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_matches_raising_reference_bit_for_bit(self, monkeypatch, case):
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        assert assert_matches_raising_reference(case).modes.merged_from is None

    def test_no_init_freqs_is_the_cold_search_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        search = assert_matches_raising_reference("relaxed_recovery_window", init_freqs=None)
        assert len(search.path) == 7

    def test_first_step_starts_at_init_freqs(self, monkeypatch):
        # The second window of seed 120, started where the first window's
        # search ended.
        sig, fs, cfg = recovery_window(8.0)
        start = np.sort(select_alpha(*relaxed_recovery_window()).unmerged_freqs)
        calls = []
        decompose = vmd.vmd_decompose

        def recording(signal, sample_rate, K, alpha, init_freqs=None, init_spectra=None):
            ms = decompose(signal, sample_rate, K, alpha, init_freqs, init_spectra)
            calls.append((alpha, init_freqs, init_spectra, ms))
            return ms

        monkeypatch.setattr(vmd, "vmd_decompose", recording)
        # Merged, the first step passes; its unmerged K frequencies come back.
        search = select_alpha(sig, fs, cfg, init_freqs=start)
        assert len(calls) == len(search.path) == 1 and search.feasible
        _, init_freqs, init_spectra, first = calls[0]
        assert np.array_equal(init_freqs, start) and init_spectra is None
        assert search.modes.n_modes < cfg.k_modes
        assert np.array_equal(search.unmerged_freqs, first.center_freqs)
        # Unmerged, all 7 steps run, each after the first from the step before.
        calls.clear()
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        search = select_alpha(sig, fs, cfg, init_freqs=start)
        assert len(calls) == len(search.path) == 7
        assert np.array_equal(calls[0][1], start) and calls[0][2] is None
        for (prev_alpha, _, _, prev), (alpha, init_freqs, init_spectra, _) in zip(calls, calls[1:]):
            warm_freqs, warm_spectra = warm_start(prev, prev_alpha, alpha)
            assert np.array_equal(init_freqs, warm_freqs)
            assert (init_spectra is None and warm_spectra is None) or np.array_equal(
                init_spectra, warm_spectra)

    def test_infeasible_search_ends_at_its_least_violating_step(self, monkeypatch):
        sig, fs, cfg = relaxed_recovery_window()
        decomps = []
        decompose = vmd.vmd_decompose

        def recording(*args, **kwargs):
            decomps.append(decompose(*args, **kwargs))
            return decomps[-1]

        monkeypatch.setattr(vmd, "vmd_decompose", recording)
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        search = select_alpha(sig, fs, cfg)
        assert not search.feasible
        chosen = [alpha for alpha, _, _ in search.path].index(search.alpha)
        assert np.array_equal(search.unmerged_freqs, decomps[chosen].center_freqs)

    def test_merged_search_matches_raising_reference_bit_for_bit(self):
        # The second window of seed 120 merges a split heartbeat on its
        # steps 2-5 and passes both gates on step 5, so steps 3-5 show that
        # each step starts from the unmerged decomposition before it.
        signal, fs, cfg = recovery_window(8.0)
        search = select_alpha(signal, fs, cfg)
        ref_alphas = []
        alpha, modes = raising_reference(signal, fs, cfg, ref_alphas, merge_hz=MERGE_HZ)
        assert search.feasible
        assert len(search.path) == 5
        assert modes.merged_from is not None
        assert search.alpha == alpha
        assert np.array_equal(search.modes.modes, modes.modes)
        assert np.array_equal(search.modes.center_freqs, modes.center_freqs)
        assert search.modes.merged_from == modes.merged_from
        assert chosen_step(search) == (alpha, mode_correlation_max(modes), energy_loss(modes))
        assert [a for a, _, _ in search.path] == ref_alphas

    def test_merge_makes_the_relaxed_window_feasible(self, monkeypatch):
        signal, fs, cfg = relaxed_recovery_window()
        with monkeypatch.context() as mp:
            mp.setattr(vmd, "MERGE_HZ", 0.0)
            assert not select_alpha(signal, fs, cfg).feasible
        search = select_alpha(signal, fs, cfg)
        assert search.feasible
        assert search.modes.n_modes < cfg.k_modes

    def test_warm_search_takes_fewer_sweeps_than_cold_steps(self, monkeypatch):
        sig, fs, cfg = relaxed_recovery_window()
        warm_iters = []
        decompose = vmd.vmd_decompose

        def counting(*args, **kwargs):
            ms = decompose(*args, **kwargs)
            warm_iters.append(ms.n_iters)
            return ms

        monkeypatch.setattr(vmd, "vmd_decompose", counting)
        monkeypatch.setattr(vmd, "MERGE_HZ", 0.0)
        path = select_alpha(sig, fs, cfg).path
        monkeypatch.undo()
        cold_iters = [vmd_decompose(sig, fs, cfg.k_modes, a).n_iters for a, _, _ in path]
        assert len(warm_iters) == len(path) == 7
        assert warm_iters[0] == cold_iters[0]
        assert sum(warm_iters) < sum(cold_iters)


class TestMonotonicity:
    def test_diagnostics_monotone_over_alpha_sweep(self):
        """p non-decreasing and r_max non-increasing (<=5% local violations)."""
        sig = two_tone()
        alphas = np.geomspace(10.0, 8000.0, 41)
        r_vals, p_vals = [], []
        for a in alphas:
            ms = vmd_decompose(sig, FS, 2, float(a))
            r_vals.append(mode_correlation_max(ms))
            p_vals.append(energy_loss(ms))
        p_viol = int(np.sum(np.diff(p_vals) < 0))
        r_viol = int(np.sum(np.diff(r_vals) > 0))
        n_pairs = len(alphas) - 1
        assert p_viol <= 0.05 * n_pairs
        assert r_viol <= 0.05 * n_pairs
