"""Variational mode decomposition with gate-driven penalty selection.

The decomposition follows the standard ADMM scheme: one-sided spectrum,
Wiener-like mode updates, center frequencies as power-weighted spectral
means, optional dual ascent. The window is mirror-extended before the FFT
and cropped afterwards to tame edge artifacts.

The penalty factor alpha trades mode aliasing (too small: modes overlap,
pairwise correlation rises) against decomposition energy loss (too large:
modes narrow, residual grows). Two diagnostics quantify the trade-off:

* ``mode_correlation_max`` -- the largest absolute Pearson correlation
  over mode pairs; must stay below the ceiling mu1.
* ``energy_loss`` -- residual-to-input energy ratio; must stay below mu2.

``select_alpha`` bisects alpha in log space until a decomposition passes
both gates, and reports the least-violating one when none does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

MIN_SIGNAL_LENGTH = 64

# Default bracket and stopping ratio of the alpha bisection.
ALPHA_LO = 10.0
ALPHA_HI = 1e6
ALPHA_RATIO_TOL = 1.1

# Modes whose variance falls below this fraction of the input variance are
# numerical dust (surplus modes on clean signals); they are excluded from
# the pairwise-correlation gate.
_NEGLIGIBLE_VAR_FRACTION = 1e-10


@dataclass(frozen=True)
class VmdParams:
    """Decomposition knobs. ``alpha`` is in the vmdpy normalized convention."""

    K: int = 6
    alpha: float = 2000.0
    tau: float = 0.0
    tolerance: float = 1e-7
    max_iters: int = 500
    mirror_frac: float = 0.1

    def __post_init__(self):
        if not 2 <= self.K <= 7:
            raise ValueError(f"K must be in [2, 7], got {self.K}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 <= self.mirror_frac <= 0.5:
            raise ValueError(f"mirror_frac must be in [0, 0.5], got {self.mirror_frac}")


@dataclass(frozen=True)
class GateThresholds:
    """Acceptance ceilings for the two decomposition diagnostics."""

    mu1: float = 0.2    # max pairwise |Pearson r| between modes
    mu2: float = 1e-4   # max residual-to-input energy ratio

    def __post_init__(self):
        if not 0.0 < self.mu1 < 1.0:
            raise ValueError(f"mu1 must be in (0, 1), got {self.mu1}")
        # mu2 == 0 is permitted so an unsatisfiable energy gate can be
        # expressed; the search then always ends infeasible.
        if not 0.0 <= self.mu2 < 1.0:
            raise ValueError(f"mu2 must be in [0, 1), got {self.mu2}")


@dataclass
class ModeSet:
    """Result of one decomposition, modes ordered by descending energy.

    ``residual`` is defined as ``input - modes.sum(axis=0)`` evaluated in
    that fixed order, so ``input - sum(modes) - residual`` is exactly zero.
    """

    modes: np.ndarray          # (K, n)
    center_freqs: np.ndarray   # Hz, aligned with mode order
    residual: np.ndarray
    input_signal: np.ndarray
    input_energy: float
    sample_rate: float
    converged: bool
    n_iters: int

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def mode_energies(self) -> np.ndarray:
        return np.sum(self.modes**2, axis=1)


def vmd_decompose(
    signal: np.ndarray, sample_rate: float, params: VmdParams
) -> ModeSet:
    """Decompose ``signal`` into ``params.K`` narrowband modes.

    Center frequencies are initialized uniformly over [0, sample_rate/4]
    and converge to the power-weighted means of their mode spectra.
    Iteration stops when the relative change of the mode spectra drops
    below ``params.tolerance`` or after ``params.max_iters`` sweeps; the
    termination reason is recorded on the result.
    """
    f = np.asarray(signal, dtype=float)
    if f.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if len(f) < MIN_SIGNAL_LENGTH:
        raise ValueError(
            f"signal length must be >= {MIN_SIGNAL_LENGTH}, got {len(f)}"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError("signal contains non-finite values")

    n = len(f)
    m = max(1, round(params.mirror_frac * n))
    ext = np.concatenate([f[:m][::-1], f, f[-m:][::-1]])
    T = len(ext)

    # Only the non-negative bins are kept: DC up to just below Nyquist, in
    # cycles/sample. For even T the Nyquist bin (which fftfreq counts as
    # -0.5) is left out, so every mode is zero there.
    P = (T + 1) // 2
    freqs = np.fft.fftfreq(T)[:P]
    f_plus = np.fft.fft(ext)[:P]

    K = params.K
    omega = (np.arange(K) + 0.5) / K * 0.25   # uniform over [0, fs/4], normalized
    u_hat = np.zeros((K, P), dtype=complex)
    sum_u = np.zeros(P, dtype=complex)
    lam = np.zeros(P, dtype=complex)
    power = np.zeros((K, P))   # |u_hat|^2 after the previous sweep

    converged = False
    for it in range(1, params.max_iters + 1):
        u_prev = u_hat.copy()
        norm = power.sum()
        # Mode k's Wiener gain reads omega_k from the previous sweep, so all
        # K gains are formed up front; only the mode updates are sequential.
        gain = 1.0 / (params.alpha * (freqs - omega[:, None]) ** 2 + 1.0)
        for k in range(K):
            sum_u -= u_prev[k]
            rhs = f_plus - sum_u
            if params.tau != 0.0:
                rhs -= lam / 2.0
            u_hat[k] = rhs * gain[k]
            sum_u += u_hat[k]
        power = np.abs(u_hat) ** 2
        denom = power.sum(axis=1)
        for k in range(K):
            if denom[k] > 1e-300:
                omega[k] = np.dot(freqs, power[k]) / denom[k]
        if params.tau != 0.0:
            lam = lam + params.tau * (sum_u - f_plus)
        if np.sum(np.abs(u_hat - u_prev) ** 2) <= params.tolerance * max(norm, 1e-300):
            converged = True
            break

    # Real inverse transform of the one-sided spectra, then crop the mirrors.
    modes = np.fft.irfft(u_hat, n=T, axis=1)[:, m : m + n]

    energies = np.sum(modes**2, axis=1)
    order = np.argsort(energies, kind="stable")[::-1]
    modes = modes[order]
    center_freqs = omega[order] * sample_rate

    residual = f - modes.sum(axis=0)
    return ModeSet(
        modes=modes,
        center_freqs=center_freqs,
        residual=residual,
        input_signal=f,
        input_energy=float(np.dot(f, f)),
        sample_rate=sample_rate,
        converged=converged,
        n_iters=it,
    )


def mode_correlation_max(ms: ModeSet) -> float:
    """Largest |Pearson r| over mode pairs, the aliasing diagnostic.

    r_ij = (E(u_i u_j) - E(u_i) E(u_j)) / sqrt(D(u_i) D(u_j)). Modes with
    negligible variance are excluded; fewer than two usable modes gives 0.
    """
    modes = ms.modes
    variances = modes.var(axis=1)
    floor = _NEGLIGIBLE_VAR_FRACTION * max(ms.input_signal.var(), 1e-300)
    usable = np.flatnonzero(variances > floor)
    if len(usable) < 2:
        return 0.0
    r_max = 0.0
    for a in range(len(usable)):
        for b in range(a + 1, len(usable)):
            i, j = usable[a], usable[b]
            cov = np.mean(modes[i] * modes[j]) - modes[i].mean() * modes[j].mean()
            r = abs(cov) / math.sqrt(variances[i] * variances[j])
            r_max = max(r_max, r)
    return r_max


def energy_loss(ms: ModeSet) -> float:
    """Residual-to-input energy ratio p = ||f - sum(u_k)||^2 / ||f||^2."""
    if ms.input_energy <= 0.0:
        raise ValueError("energy loss is undefined for a zero-energy input")
    return float(np.dot(ms.residual, ms.residual)) / ms.input_energy


def check_alpha_bracket(alpha_range: tuple[float, float], ratio_tol: float) -> None:
    """Reject a bisection bracket or stopping ratio the search cannot finish.

    Requires ``0 < lo < hi < inf`` and ``ratio_tol > 1``; NaN fails both.
    """
    lo, hi = alpha_range
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"require 0 < alpha_lo < alpha_hi < inf, got {alpha_range}")
    if not ratio_tol > 1.0:
        raise ValueError(f"alpha_ratio_tol must be > 1, got {ratio_tol}")


@dataclass
class AlphaSearch:
    """Outcome of one select_alpha run.

    ``alpha``, ``modes``, ``r_max`` and ``p`` describe the first
    decomposition that passed both gates or, when ``feasible`` is False, the
    least-violating one. ``path`` holds one ``(alpha, r_max, p)`` tuple per
    decomposition, in search order.
    """

    alpha: float
    modes: ModeSet
    r_max: float
    p: float
    feasible: bool
    path: list[tuple[float, float, float]]


def select_alpha(
    signal: np.ndarray,
    sample_rate: float,
    params: VmdParams,
    gates: GateThresholds = GateThresholds(),
    alpha_range: tuple[float, float] = (ALPHA_LO, ALPHA_HI),
    ratio_tol: float = ALPHA_RATIO_TOL,
) -> AlphaSearch:
    """Find a penalty factor whose decomposition passes both gates.

    Bisects alpha in log space: too much mode correlation pushes the lower
    bound up, too much energy loss pushes the upper bound down. Energy loss
    takes priority when both gates fail at once, because that regime sits
    at the over-decomposed high end where shrinking alpha restores both
    diagnostics. Stops as soon as a feasible decomposition is found. Once
    the bracket ratio falls below ``ratio_tol`` it returns the
    least-violating attempt (the earliest on ties) with ``feasible=False``.
    Every decomposition uses ``params`` with its alpha replaced by the
    bisection midpoint.
    """
    check_alpha_bracket(alpha_range, ratio_tol)
    lo, hi = alpha_range
    path = []
    best = None   # (violation, alpha, modes, r_max, p) of the least-violating attempt
    while True:
        mid = math.sqrt(lo * hi)
        ms = vmd_decompose(signal, sample_rate, replace(params, alpha=mid))
        r = mode_correlation_max(ms)
        p = energy_loss(ms)
        path.append((mid, r, p))
        if r <= gates.mu1 and p <= gates.mu2:
            return AlphaSearch(mid, ms, r, p, True, path)
        violation = max(r / gates.mu1 - 1.0, 0.0) + (
            max(p / gates.mu2 - 1.0, 0.0) if gates.mu2 > 0 else math.inf
        )
        if best is None or violation < best[0]:
            best = (violation, mid, ms, r, p)
        if p > gates.mu2:
            hi = mid
        else:
            lo = mid
        if hi / lo < ratio_tol:
            return AlphaSearch(*best[1:], feasible=False, path=path)
