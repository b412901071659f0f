import math
from dataclasses import replace

import numpy as np
import pytest

from hrrkit import vmd
from hrrkit.config import PipelineConfig
from hrrkit.pipeline import preprocess_trace
from hrrkit.vmd import (
    GateThresholds,
    ModeSet,
    VmdParams,
    energy_loss,
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
    if residual is None:
        residual = input_signal - modes.sum(axis=0)
    return ModeSet(
        modes=modes,
        center_freqs=np.zeros(len(modes)),
        residual=np.asarray(residual, dtype=float),
        input_signal=np.asarray(input_signal, dtype=float),
        input_energy=float(np.dot(input_signal, input_signal)),
        sample_rate=fs,
        converged=True,
        n_iters=1,
    )


def two_sided_reference(signal, fs, params):
    """The same ADMM run over the full two-sided spectrum.

    The negative half is held at zero throughout and each mode is inverted
    after Hermitian completion; the one-sided core must match it.
    """
    f = np.asarray(signal, dtype=float)
    n = len(f)
    m = max(1, round(params.mirror_frac * n))
    ext = np.concatenate([f[:m][::-1], f, f[-m:][::-1]])
    T = len(ext)
    freqs = np.fft.fftfreq(T)
    pos = freqs >= 0.0
    f_plus = np.where(pos, np.fft.fft(ext), 0.0)
    K = params.K
    u_hat = np.zeros((K, T), dtype=complex)
    lam = np.zeros(T, dtype=complex)
    omega = (np.arange(K) + 0.5) / K * 0.25
    sum_u = u_hat.sum(axis=0)
    converged = False
    for it in range(1, params.max_iters + 1):
        u_prev = u_hat.copy()
        for k in range(K):
            sum_u = sum_u - u_hat[k]
            u_hat[k] = (f_plus - sum_u - lam / 2.0) / (1.0 + params.alpha * (freqs - omega[k]) ** 2)
            sum_u = sum_u + u_hat[k]
            power = np.abs(u_hat[k][pos]) ** 2
            if power.sum() > 1e-300:
                omega[k] = float(np.dot(freqs[pos], power) / power.sum())
        if params.tau != 0.0:
            lam = lam + params.tau * (sum_u - f_plus)
        diff = np.sum(np.abs(u_hat - u_prev) ** 2)
        if diff <= params.tolerance * max(np.sum(np.abs(u_prev) ** 2), 1e-300):
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


def allocating_reference(signal, fs, params):
    """The one-sided sweep as first written, one fresh array per operation.

    The in-place core must reproduce it bit for bit.
    """
    f = np.asarray(signal, dtype=float)
    n = len(f)
    m = max(1, round(params.mirror_frac * n))
    ext = np.concatenate([f[:m][::-1], f, f[-m:][::-1]])
    T = len(ext)
    P = (T + 1) // 2
    freqs = np.fft.fftfreq(T)[:P]
    f_plus = np.fft.fft(ext)[:P]
    K = params.K
    alpha = params.alpha
    u_hat = np.zeros((K, P), dtype=complex)
    omega = (np.arange(K) + 0.5) / K * 0.25
    lam = np.zeros(P, dtype=complex)
    sum_u = u_hat.sum(axis=0)
    converged = False
    it = 0
    for it in range(1, params.max_iters + 1):
        u_prev = u_hat.copy()
        for k in range(K):
            sum_u = sum_u - u_hat[k]
            numer = f_plus - sum_u - lam / 2.0
            u_hat[k] = numer / (1.0 + alpha * (freqs - omega[k]) ** 2)
            sum_u = sum_u + u_hat[k]
            power = np.abs(u_hat[k]) ** 2
            denom = power.sum()
            if denom > 1e-300:
                omega[k] = float(np.dot(freqs, power) / denom)
        if params.tau != 0.0:
            lam = lam + params.tau * (sum_u - f_plus)
        diff = np.sum(np.abs(u_hat - u_prev) ** 2)
        norm = np.sum(np.abs(u_prev) ** 2)
        if diff <= params.tolerance * max(norm, 1e-300):
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


# (n, tau, alpha, tolerance, max_iters). n = 768 extends to an even T = 922,
# n = 769 to an odd T = 923. Loose tolerances stop in the first sweeps, where
# the norms of u_prev and u_hat still differ enough to move the stopping
# sweep; max_iters = 5 stops unconverged.
IN_PLACE_CASES = (
    [(n, tau, alpha, 1e-7, 500) for n in (768, 769) for tau in (0.0, 0.1)
     for alpha in (10.0, 2000.0, 1e6)]
    + [(768, 0.0, alpha, tol, 500) for alpha in (2000.0, 1e6) for tol in (1e-1, 3e-2, 1e-3)]
    + [(768, tau, 2000.0, 1e-7, 5) for tau in (0.0, 0.1)]
)


class TestInPlaceSweep:
    @pytest.mark.parametrize("n, tau, alpha, tolerance, max_iters", IN_PLACE_CASES)
    def test_matches_allocating_reference_bit_for_bit(self, n, tau, alpha, tolerance, max_iters):
        sig = three_tone(n)
        params = VmdParams(K=4, alpha=alpha, tau=tau, tolerance=tolerance, max_iters=max_iters)
        modes, center_freqs, converged, n_iters = allocating_reference(sig, FS, params)
        ms = vmd_decompose(sig, FS, params)
        assert ms.n_iters == n_iters and ms.converged == converged
        assert np.array_equal(ms.center_freqs, center_freqs)
        assert np.array_equal(ms.modes, modes)
        if max_iters == 5:
            assert not converged and n_iters == 5


class TestSpectrumConvention:
    # n = 768 extends to an even T = 922 (Nyquist bin present), n = 769 to
    # an odd T = 923.
    @pytest.mark.parametrize("n", [768, 769])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_one_sided_core_matches_two_sided_reference(self, n, tau):
        duration = n / FS
        sig = (
            tone(0.35, FS, duration, phase=0.3)
            + tone(1.5, FS, duration, amp=0.7, phase=1.1)
            + tone(4.0, FS, duration, amp=0.2, phase=0.5)
        )
        assert len(sig) == n
        params = VmdParams(K=3, alpha=2000.0, tau=tau)
        modes, center_freqs, converged, n_iters = two_sided_reference(sig, FS, params)
        ms = vmd_decompose(sig, FS, params)
        assert ms.n_iters == n_iters and ms.converged == converged
        assert np.array_equal(ms.center_freqs, center_freqs)
        assert np.max(np.abs(ms.modes - modes)) <= 1e-12 * np.max(np.abs(modes))


class TestDecompose:
    def test_pure_tone_single_mode(self):
        sig = tone(1.0, FS, DURATION)
        ms = vmd_decompose(sig, FS, VmdParams(K=2, alpha=200.0))
        energies = ms.mode_energies
        main = int(np.argmax(energies))
        assert energies[main] / energies.sum() >= 0.99
        assert abs(ms.center_freqs[main] - 1.0) < 0.05

    def test_two_tone_recovery(self):
        sig = two_tone()
        ms = vmd_decompose(sig, FS, VmdParams(K=2, alpha=200.0))
        freqs = np.sort(ms.center_freqs)
        assert freqs == pytest.approx([0.35, 1.5], abs=0.05)
        for f, amp, ph in ((0.35, 1.0, 0.3), (1.5, 0.7, 1.1)):
            k = int(np.argmin(np.abs(ms.center_freqs - f)))
            src = tone(f, FS, DURATION, amp=amp, phase=ph)
            assert abs(np.corrcoef(ms.modes[k], src)[0, 1]) > 0.99

    def test_zero_signal(self):
        ms = vmd_decompose(np.zeros(256), FS, VmdParams(K=3, alpha=500.0))
        assert np.array_equal(ms.modes, np.zeros_like(ms.modes))
        assert np.array_equal(ms.residual, np.zeros(256))

    def test_reconstruction_identity_bit_exact(self):
        ms = vmd_decompose(two_tone(), FS, VmdParams(K=2, alpha=200.0))
        err = ms.input_signal - ms.modes.sum(axis=0) - ms.residual
        assert np.all(err == 0.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="length"):
            vmd_decompose(np.ones(32), FS, VmdParams())

    def test_rejects_non_finite(self):
        bad = np.ones(128)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            vmd_decompose(bad, FS, VmdParams())

    def test_termination_recorded(self):
        ms = vmd_decompose(two_tone(), FS, VmdParams(K=2, alpha=200.0))
        assert ms.converged and 1 <= ms.n_iters <= 500
        ms2 = vmd_decompose(two_tone(), FS, VmdParams(K=2, alpha=200.0, max_iters=3))
        assert not ms2.converged and ms2.n_iters == 3

    def test_mode_narrowbandedness(self):
        ms = vmd_decompose(two_tone(), FS, VmdParams(K=2, alpha=200.0))
        n = ms.modes.shape[1]
        freqs = np.fft.rfftfreq(n, d=1.0 / FS)
        for k in range(2):
            power = np.abs(np.fft.rfft(ms.modes[k])) ** 2
            in_band = power[np.abs(freqs - ms.center_freqs[k]) <= 0.3].sum()
            assert in_band / power.sum() >= 0.9

    def test_params_validation(self):
        with pytest.raises(ValueError):
            VmdParams(K=1)
        with pytest.raises(ValueError):
            VmdParams(alpha=-1.0)


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


class ReferenceInfeasible(Exception):
    """The raising reference's exhausted search and its least-violating attempt."""

    def __init__(self, best_r_max, best_p, best_alpha, best_modeset):
        super().__init__("alpha search exhausted")
        self.best_r_max = best_r_max
        self.best_p = best_p
        self.best_alpha = best_alpha
        self.best_modeset = best_modeset


def raising_reference(signal, sample_rate, params, gates, alphas,
                      alpha_range=(10.0, 1e6), ratio_tol=1.1):
    """The alpha search as it was when exhaustion raised; test-only.

    Returns ``(alpha, modes)`` of the first feasible decomposition, raises
    ReferenceInfeasible with the least-violating attempt once the bracket is
    exhausted, and appends every tried alpha to ``alphas``. ``select_alpha``
    must reproduce it bit for bit.
    """
    lo, hi = alpha_range
    best_r, best_p = math.inf, math.inf
    best = None

    def violation(r, p):
        return max(r / gates.mu1 - 1.0, 0.0) + (
            max(p / gates.mu2 - 1.0, 0.0) if gates.mu2 > 0 else math.inf
        )

    while True:
        mid = math.sqrt(lo * hi)
        ms = vmd_decompose(signal, sample_rate, replace(params, alpha=mid))
        r = mode_correlation_max(ms)
        p = energy_loss(ms)
        alphas.append(mid)
        if best is None or violation(r, p) < violation(best_r, best_p):
            best_r, best_p, best = r, p, (mid, ms)
        if r <= gates.mu1 and p <= gates.mu2:
            return mid, ms
        if p > gates.mu2:
            hi = mid
        else:
            lo = mid
        if hi / lo < ratio_tol:
            raise ReferenceInfeasible(best_r, best_p, best[0], best[1])


def relaxed_recovery_window():
    """The first 16 s analysis window of recovery seed 120, whose gates relax."""
    prepared = preprocess_trace(noisy_recovery(120), PipelineConfig())
    fs = prepared.sample_rate
    return prepared.samples[: round(16.0 * fs)], fs, VmdParams(), GateThresholds()


SEARCH_CASES = {
    "feasible_two_tone": lambda: (two_tone(), FS, VmdParams(K=2), GateThresholds()),
    "zero_energy_gate": lambda: (
        two_tone(), FS, VmdParams(K=2), GateThresholds(mu1=0.2, mu2=0.0)
    ),
    "relaxed_recovery_window": relaxed_recovery_window,
}


class TestSelectAlpha:
    def test_returned_decomposition_passes_gates(self):
        gates = GateThresholds()
        ms = select_alpha(two_tone(), FS, VmdParams(K=2), gates).modes
        assert mode_correlation_max(ms) <= gates.mu1
        assert energy_loss(ms) <= gates.mu2

    def test_default_gate_values(self):
        gates = GateThresholds()
        assert gates.mu1 == 0.2 and gates.mu2 == 1e-4

    def test_impossible_energy_gate_is_infeasible(self):
        search = select_alpha(two_tone(), FS, VmdParams(K=2), GateThresholds(mu1=0.2, mu2=0.0))
        assert not search.feasible
        assert search.p > 0.0

    def test_infeasible_search_carries_best_attempt(self):
        search = select_alpha(
            two_tone(), FS, VmdParams(K=2), GateThresholds(mu1=0.2, mu2=0.0)
        )
        assert not search.feasible
        assert search.alpha in [alpha for alpha, _, _ in search.path]
        assert energy_loss(search.modes) == search.p
        assert search.modes.n_modes == 2

    def test_search_cost_bounded(self):
        search = select_alpha(two_tone(), FS, VmdParams(K=2))
        budget = math.ceil(math.log2(math.log(1e6 / 10.0) / math.log(1.1))) + 1
        assert len(search.path) <= budget

    def test_gate_threshold_validation(self):
        with pytest.raises(ValueError):
            GateThresholds(mu1=0.0)
        with pytest.raises(ValueError):
            GateThresholds(mu2=1.5)

    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_matches_raising_reference_bit_for_bit(self, case):
        signal, fs, params, gates = SEARCH_CASES[case]()
        search = select_alpha(signal, fs, params, gates)
        ref_alphas = []
        try:
            alpha, modes = raising_reference(signal, fs, params, gates, ref_alphas)
            raised = False
        except ReferenceInfeasible as exc:
            alpha, modes = exc.best_alpha, exc.best_modeset
            assert (search.r_max, search.p) == (exc.best_r_max, exc.best_p)
            raised = True
        assert search.feasible == (not raised) == (case == "feasible_two_tone")
        assert search.alpha == alpha
        assert np.array_equal(search.modes.modes, modes.modes)
        assert np.array_equal(search.modes.center_freqs, modes.center_freqs)
        # The window stage used to recompute both diagnostics on the chosen modes.
        assert search.r_max == mode_correlation_max(modes)
        assert search.p == energy_loss(modes)
        assert [a for a, _, _ in search.path] == ref_alphas

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"ratio_tol": math.nan}, "alpha_ratio_tol must be > 1"),
            ({"ratio_tol": 1.0}, "alpha_ratio_tol must be > 1"),
            ({"alpha_range": (10.0, math.inf)}, "alpha_lo < alpha_hi < inf"),
            ({"alpha_range": (math.nan, 1e6)}, "alpha_lo < alpha_hi < inf"),
            ({"alpha_range": (1e6, 10.0)}, "alpha_lo < alpha_hi < inf"),
        ],
    )
    def test_unfinishable_bracket_raises_before_decomposing(self, monkeypatch, kwargs, match):
        def no_decomposition(*args):
            raise AssertionError("decomposed before checking the bracket")

        monkeypatch.setattr(vmd, "vmd_decompose", no_decomposition)
        with pytest.raises(ValueError, match=match):
            select_alpha(two_tone(), FS, VmdParams(K=2), **kwargs)


class TestMonotonicity:
    def test_diagnostics_monotone_over_alpha_sweep(self):
        """p non-decreasing and r_max non-increasing (<=5% local violations)."""
        sig = two_tone()
        alphas = np.geomspace(10.0, 8000.0, 41)
        r_vals, p_vals = [], []
        for a in alphas:
            ms = vmd_decompose(sig, FS, VmdParams(K=2, alpha=float(a)))
            r_vals.append(mode_correlation_max(ms))
            p_vals.append(energy_loss(ms))
        p_viol = int(np.sum(np.diff(p_vals) < 0))
        r_viol = int(np.sum(np.diff(r_vals) > 0))
        n_pairs = len(alphas) - 1
        assert p_viol <= 0.05 * n_pairs
        assert r_viol <= 0.05 * n_pairs
