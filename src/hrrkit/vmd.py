"""Variational mode decomposition with gate-driven penalty selection.

The decomposition follows the standard ADMM scheme: one-sided spectrum,
Wiener-like mode updates, center frequencies as power-weighted spectral
means, at the noise-tolerant setting tau = 0, so with no dual ascent. The
window is mirror-extended by ``_MIRROR_FRAC`` of its length at each end
before the FFT and cropped afterwards to tame edge artifacts.

The sweeps run only on the one-sided bins below ``SWEEP_EDGE_HZ``. The
inverse transform zero-pads the bins above it, so content there stays in the
residual and counts towards the energy loss. At a sample rate of 50 Hz or
less the edge lies at or above Nyquist, and every bin is swept, as published
VMD does.

The sweep is held in residual form. It keeps resid = f_hat - sum_k u_k, so
each mode update adds its own old spectrum back, takes the Wiener gain of
the sum and subtracts the new spectrum again. The power |u_k|^2 comes from
the squares of the spectra's real and imaginary parts, and one BLAS product
gives every mode's power and first moment, so all K center frequencies at
once. The sweeps stop once the squared change of the mode spectra is at
most ``TOLERANCE`` times the spectral power of the sweep before, or after
``MAX_ITERS`` sweeps. The change is taken as |u_hat|^2 + |u_prev|^2 -
2 <u_hat, u_prev>: the two powers come from the center-frequency product
and the inner product is one BLAS dot, so no difference pass runs. Near convergence the terms cancel, so it matches
the exact sum of |u_hat - u_prev|^2 only to a few eps of the power, about
1e-8 of the threshold at ``TOLERANCE``; tolerances below about
1e-12 no longer resolve the stopping sweep. This is the same ADMM iteration
as the literal form of vmdpy, which keeps sum_k u_k and takes |.|^2 through
np.abs: the two differ only in rounding. The tests pin the core to that
form at the same sweep count, with modes and center frequencies within
1e-12, relative, wherever the iteration does not itself magnify a one-ulp
change of its start beyond that.

The penalty factor alpha trades mode aliasing (too small: modes overlap,
pairwise correlation rises) against decomposition energy loss (too large:
modes narrow, residual grows). Two diagnostics quantify the trade-off:

* ``mode_correlation_max`` -- the largest absolute Pearson correlation
  over mode pairs; must stay below the ceiling mu1.
* ``energy_loss`` -- residual-to-input energy ratio; must stay below mu2.

``select_alpha`` bisects alpha in log space until a decomposition passes
both gates, and reports the least-violating one when none does. Its first
decomposition starts at the center frequencies the caller gives, or cold
(uniformly spaced) without them, and with zero mode spectra either way. The
pipeline gives it the unmerged center frequencies where the previous
analysis window's search ended (``AlphaSearch.unmerged_freqs``), sorted
ascending. Each later one starts from the center frequencies the step
before ended at, sorted ascending, so it takes fewer sweeps to converge.
When its alpha is within a factor of ``_SPECTRA_WARM_RATIO`` of the step
before's, the mode spectra go along in the same order too. The source paper
does not specify the VMD initialisation. The bisection rule, the gates and
the least-violating fallback are the same as with a cold start at every
step.

While the heart rate recovers, the heartbeat can split into two converged
modes a few hundredths of a Hz apart. Such a pair is highly correlated, so
it fails mu1 at every alpha the search tries. So ``select_alpha`` first
sums modes closer than ``MERGE_HZ`` (``merge_close_modes``) and judges the
gates on the merged set, a departure from the paper, which gates the K
modes as they come. ``MERGE_HZ = 0`` runs the paper's search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import PipelineConfig

MIN_SIGNAL_LENGTH = 64

# The sweeps stop once the squared change of the mode spectra is at most
# TOLERANCE times their power, or after MAX_ITERS sweeps.
TOLERANCE = 1e-7
MAX_ITERS = 500

# The sweeps run on the bins below SWEEP_EDGE_HZ. The band-pass, a 4th-order
# Butterworth run forward and backward, is down to about 4**-8 in amplitude
# at four times its upper edge of 3.4 Hz. What a window holds above 25 Hz is
# leakage from its edges, which modes swept to Nyquist leave in the residual
# too: on the windows of a recovery trace, the energy loss at alpha = 3162
# moves by at most 1.2e-7 against the gate mu2 = 1e-4. A 12.5 Hz edge
# measurably costs accuracy. The edge is in Hz, not a share of the sample
# rate, so slow traces (at or below 50 Hz) keep every bin.
SWEEP_EDGE_HZ = 25.0

# Bracket and stopping ratio of the alpha bisection.
ALPHA_LO = 10.0
ALPHA_HI = 1e6
ALPHA_RATIO_TOL = 1.1

# The alpha search merges modes closer than this, in Hz, before its gates. A
# recovering heartbeat splits into modes 0.01-0.09 Hz apart; 0.08 Hz leaves
# some splits whole. The width stays below the respiration band's floor,
# 0.167 Hz, so a slow breather's fundamental and 2nd harmonic stay apart.
MERGE_HZ = 0.15

# A bisection step starts from the step before's mode spectra only when the
# two alphas are within this factor of each other. Further apart, the old
# spectra are shaped by a penalty too different from the new one, and
# starting from them moves the result more than the saved sweeps are worth.
_SPECTRA_WARM_RATIO = 1.5

# Each end of the window is mirrored over this fraction of its length.
_MIRROR_FRAC = 0.1

# Modes whose variance falls below this fraction of the input variance are
# numerical dust (surplus modes on clean signals); they are excluded from
# the pairwise-correlation gate.
_NEGLIGIBLE_VAR_FRACTION = 1e-10


@dataclass
class ModeSet:
    """Result of one decomposition, modes ordered by descending energy."""

    modes: np.ndarray          # (K, n)
    center_freqs: np.ndarray   # Hz, aligned with mode order
    input_signal: np.ndarray
    input_energy: float
    sample_rate: float
    converged: bool
    n_iters: int
    # (K, P) one-sided spectra of the mirrored window, aligned with mode
    # order, over the swept bins only (those below SWEEP_EDGE_HZ); None
    # on a set not built by vmd_decompose, a merged one included.
    spectra: np.ndarray | None = None
    # On a set built by merge_close_modes: for each mode, the indices of the
    # modes of the unmerged set that it sums, ascending. None elsewhere,
    # where each mode is its own.
    merged_from: tuple[tuple[int, ...], ...] | None = None

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def mode_energies(self) -> np.ndarray:
        return np.sum(self.modes**2, axis=1)


def vmd_decompose(
    signal: np.ndarray,
    sample_rate: float,
    K: int,
    alpha: float,
    init_freqs: np.ndarray | None = None,
    init_spectra: np.ndarray | None = None,
) -> ModeSet:
    """Decompose ``signal`` into ``K`` narrowband modes at penalty ``alpha``.

    ``alpha`` is in the vmdpy normalized convention.

    Center frequencies start at ``init_freqs``, K values in Hz in
    [0, sample_rate/2), or, when it is None, uniformly over
    [0, sample_rate/4] at (k + 0.5) / K * sample_rate/4. They converge to
    the power-weighted means of their mode spectra. The mode spectra start
    at zero, or at ``init_spectra``: K one-sided spectra of the mirrored
    window, shaped like ``ModeSet.spectra`` and matching ``init_freqs`` row
    for row, which they need. The first sweep then measures its change
    against their power. Only the bins below ``SWEEP_EDGE_HZ`` are swept,
    and ``init_spectra`` and ``ModeSet.spectra`` hold those bins only; the
    modes of the mirrored window are zero above it. Iteration stops when the
    relative change of the mode spectra drops below ``TOLERANCE`` or after
    ``MAX_ITERS`` sweeps; the termination reason is recorded on the result.

    A sweep is about 30 numpy calls on buffers allocated once, and numpy's
    dispatch of each costs as much as its arithmetic at these sizes. So the
    loop calls its ufuncs through local names with a positional ``out``,
    takes each mode update's row triple from a list zipped once per buffer
    parity, and writes the live-power mask into a preallocated buffer. The
    arithmetic and its order are those of the residual form above, so the
    result does not depend on how the calls are made.
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

    if init_spectra is not None and init_freqs is None:
        raise ValueError("init_spectra needs init_freqs")
    if init_freqs is None:
        omega = (np.arange(K) + 0.5) / K * 0.25   # cycles/sample
    else:
        init = np.asarray(init_freqs, dtype=float)
        if init.shape != (K,):
            raise ValueError(f"init_freqs must hold K = {K} values, got shape {init.shape}")
        # NaN fails both comparisons, so this also rejects non-finite values.
        if not np.all((init >= 0.0) & (init < sample_rate / 2.0)):
            raise ValueError(
                f"init_freqs must be finite and in [0, sample_rate/2), got {init.tolist()}"
            )
        omega = init / sample_rate

    n = len(f)
    m = max(1, round(_MIRROR_FRAC * n))
    ext = np.concatenate([f[:m][::-1], f, f[-m:][::-1]])
    T = len(ext)

    # Only the non-negative bins are kept: DC up to just below Nyquist, in
    # cycles/sample. For even T the Nyquist bin (which fftfreq counts as
    # -0.5) is left out, so every mode is zero there. The edge cuts them
    # further, to the bins below it; at or above Nyquist it cuts none.
    freqs = np.fft.fftfreq(T)[: (T + 1) // 2]
    P = int(np.searchsorted(freqs, SWEEP_EDGE_HZ / sample_rate))
    freqs = freqs[:P]
    if init_spectra is not None:
        init_spectra = np.asarray(init_spectra)
        if init_spectra.shape != (K, P):
            raise ValueError(
                f"init_spectra must have shape (K, P) = ({K}, {P}), got {init_spectra.shape}"
            )
        if not np.all(np.isfinite(init_spectra)):
            raise ValueError("init_spectra contains non-finite values")
    f_plus = np.fft.fft(ext)[:P]

    # Local names for the sweep's calls (see the docstring's last paragraph);
    # alpha is a 0-d array, so no call converts it.
    dot, square, add, subtract = np.dot, np.square, np.add, np.subtract
    multiply, reciprocal, divide, greater = np.multiply, np.reciprocal, np.divide, np.greater
    alpha, tolerance = np.array(alpha), TOLERANCE
    # The sweep's (K, P) buffers are allocated once. Sweep ``it`` writes
    # bufs[it % 2] and reads the one the sweep before wrote, so the two trade
    # places instead of copying; bufs[0] holds the start.
    bufs = (np.zeros((K, P), dtype=complex), np.empty((K, P), dtype=complex))
    if init_spectra is not None:
        bufs[0][:] = init_spectra
    views = [buf.view(float) for buf in bufs]   # each buffer's re and im parts
    # resid = f_plus - sum_k u_hat[k], the mode updates' shared numerator.
    resid = f_plus.copy()
    for row in bufs[0]:
        resid -= row
    # |u_hat|^2 as re^2 and im^2 side by side. One BLAS product with the
    # rows of weights, each bin's frequency twice and then ones, gives every
    # mode's first moment and power: moments[k] = (sum f |u_k|^2, sum |u_k|^2).
    sq = np.square(views[0])
    weights_t = np.stack([np.repeat(freqs, 2), np.ones(2 * P)]).T
    moments = np.dot(sq, weights_t)
    first_moment, power = moments[:, 0], moments[:, 1]
    live = np.empty(K, dtype=bool)   # the modes with power > 1e-300
    # omega is the second column of lead, and offsets holds the frequencies
    # over -1s, so np.dot(lead, offsets) gives every f - omega_k. Its terms
    # 1 * f and -1 * omega_k are exact, so each is rounded once, the same
    # number a broadcast subtraction gives, at a third of the cost.
    lead = np.ones((K, 2))
    lead[:, 1] = omega
    omega = lead[:, 1]
    offsets = np.stack([freqs, np.full(P, -1.0)])
    gain = np.empty((K, P))
    # The gains are held as complex numbers whose imaginary parts stay zero,
    # so each mode update is a complex product with no cast of its operand.
    gain_c = np.zeros((K, P), dtype=complex)
    gain_re = gain_c.real
    # Per parity of the sweep count: the mode updates' (row, prev_row,
    # gain_row) triples, the written buffer's re and im parts, and both
    # buffers as flat runs of re and im, interleaved, for the stopping test's
    # inner product.
    parities = [
        (list(zip(bufs[p], bufs[1 - p], gain_c)), views[p],
         views[p].reshape(-1), views[1 - p].reshape(-1))
        for p in (0, 1)
    ]
    norm = add.reduce(power)

    converged = False
    for it in range(1, MAX_ITERS + 1):
        triples, parts, u_flat, prev_flat = parities[it & 1]
        # Mode k's Wiener gain 1 / (alpha (f - omega_k)^2 + 1) reads omega_k
        # from the previous sweep, so all K gains are formed up front; only
        # the mode updates are sequential.
        dot(lead, offsets, gain)
        square(gain, gain)
        multiply(gain, alpha, gain)
        add(gain, 1.0, gain)
        reciprocal(gain, gain_re)
        for row, prev_row, gain_row in triples:
            add(resid, prev_row, resid)
            multiply(resid, gain_row, row)
            subtract(resid, row, resid)
        square(parts, sq)
        dot(sq, weights_t, moments)
        greater(power, 1e-300, live)
        divide(first_moment, power, omega, where=live)
        # |u_hat - u_prev|^2 = |u_hat|^2 + |u_prev|^2 - 2 <u_hat, u_prev>, from
        # the powers at hand and one dot, with no difference pass. Near
        # convergence the terms cancel, so this is the exact sum of squares
        # only to a few eps of the power: about 1e-8 of the threshold at
        # TOLERANCE.
        new_norm = add.reduce(power)
        change = new_norm + norm - 2.0 * dot(u_flat, prev_flat)
        threshold = tolerance * max(norm, 1e-300)
        norm = new_norm
        if change <= threshold:
            converged = True
            break
    u_hat = bufs[it & 1]

    # Real inverse transform of the one-sided spectra, zero above the swept
    # bins, then crop the mirrors.
    modes = np.fft.irfft(u_hat, n=T, axis=1)[:, m : m + n]

    energies = np.sum(modes**2, axis=1)
    order = np.argsort(energies, kind="stable")[::-1]
    modes = modes[order]
    center_freqs = omega[order] * sample_rate

    return ModeSet(
        modes=modes,
        center_freqs=center_freqs,
        input_signal=f,
        input_energy=float(np.dot(f, f)),
        sample_rate=sample_rate,
        converged=converged,
        n_iters=it,
        spectra=u_hat[order],
    )


def merge_close_modes(ms: ModeSet, width_hz: float) -> ModeSet:
    """Sum each chain of modes whose center frequencies are close into one.

    The modes are taken in ascending center frequency, and each run of
    neighbours less than ``width_hz`` apart, a chain, becomes one mode: the
    sum of their modes, at their energy-weighted center frequency. The
    merged modes are ordered by descending energy. ``merged_from`` names the modes of ``ms`` that each
    merged mode sums; a merged set carries no spectra. With no pair closer
    than ``width_hz``, which a width of 0 guarantees, ``ms`` itself comes
    back.
    """
    order = np.argsort(ms.center_freqs, kind="stable")
    breaks = np.flatnonzero(np.diff(ms.center_freqs[order]) >= width_hz) + 1
    if len(breaks) == ms.n_modes - 1:
        return ms
    chains = np.split(order, breaks)
    energies = ms.mode_energies
    modes = np.array([ms.modes[c].sum(axis=0) for c in chains])
    # A chain of all-zero modes has no energy to weight by; it takes the mean.
    center_freqs = np.array([
        np.average(ms.center_freqs[c], weights=energies[c] if energies[c].any() else None)
        for c in chains
    ])
    by_energy = np.argsort(np.sum(modes**2, axis=1), kind="stable")[::-1]
    return replace(
        ms,
        modes=modes[by_energy],
        center_freqs=center_freqs[by_energy],
        spectra=None,
        merged_from=tuple(tuple(sorted(int(i) for i in chains[j])) for j in by_energy),
    )


def mode_correlation_max(ms: ModeSet) -> float:
    """Largest |Pearson r| over mode pairs, the aliasing diagnostic.

    r_ij = (E(u_i u_j) - E(u_i) E(u_j)) / sqrt(D(u_i) D(u_j)), every
    covariance taken at once as one product of the centred modes. Modes with
    negligible variance are excluded; fewer than two usable modes gives 0.
    """
    variances = ms.modes.var(axis=1)
    floor = _NEGLIGIBLE_VAR_FRACTION * max(ms.input_signal.var(), 1e-300)
    usable = np.flatnonzero(variances > floor)
    if len(usable) < 2:
        return 0.0
    modes = ms.modes[usable]
    centred = modes - modes.mean(axis=1, keepdims=True)
    std = np.sqrt(variances[usable])
    r = np.abs(centred @ centred.T / centred.shape[1]) / np.outer(std, std)
    np.fill_diagonal(r, 0.0)   # each mode with itself
    return float(r.max())


def energy_loss(ms: ModeSet) -> float:
    """Residual-to-input energy ratio p = ||f - sum(u_k)||^2 / ||f||^2."""
    if ms.input_energy <= 0.0:
        raise ValueError("energy loss is undefined for a zero-energy input")
    residual = ms.input_signal - ms.modes.sum(axis=0)
    return float(np.dot(residual, residual)) / ms.input_energy


@dataclass
class AlphaSearch:
    """Outcome of one select_alpha run.

    ``alpha`` and ``modes`` describe the chosen decomposition: the first
    that passed both gates or, when ``feasible`` is False, the
    least-violating one; ``modes`` is its merged set.
    ``path`` holds one ``(alpha, r_max, p)`` tuple per decomposition, in
    search order, so the chosen one's gate diagnostics are its entry at
    ``alpha``. ``unmerged_freqs`` holds the K center frequencies of that
    decomposition before the merge, in Hz, in its energy order: where the
    search ended, for a later search to start from.
    """

    alpha: float
    modes: ModeSet
    feasible: bool
    path: list[tuple[float, float, float]]
    unmerged_freqs: np.ndarray


def select_alpha(
    signal: np.ndarray,
    sample_rate: float,
    cfg: PipelineConfig,
    init_freqs: np.ndarray | None = None,
) -> AlphaSearch:
    """Find a penalty factor whose decomposition passes both gates.

    Bisects alpha in log space from the bracket [``ALPHA_LO``, ``ALPHA_HI``]:
    too much mode correlation pushes the lower bound up, too much energy
    loss pushes the upper bound down. Energy loss takes priority when both
    gates fail at once, because that regime sits at the over-decomposed
    high end where shrinking alpha restores both diagnostics. Stops as soon
    as a feasible decomposition is found. Once the bracket ratio falls
    below ``ALPHA_RATIO_TOL`` it returns the least-violating attempt (the
    earliest on ties) with ``feasible=False``. Every decomposition has
    ``cfg.k_modes`` modes and the bisection midpoint as its alpha, and the
    gates are ``cfg.mu1`` and ``cfg.mu2``. The first
    starts its center frequencies at ``init_freqs``, K values in Hz taken
    in ascending order (None: the uniform cold start), and its mode spectra
    at zero. Each later one starts from the previous step's center
    frequencies in ascending order, which saves sweeps because
    neighbouring alphas settle on nearby frequencies. When the two alphas
    are within a factor of ``_SPECTRA_WARM_RATIO``, the previous step's
    mode spectra go along in the same order.

    Each decomposition's modes closer than ``MERGE_HZ`` are summed by
    ``merge_close_modes`` before the gates judge them, and the merged set is
    the one returned. The next step still starts from the unmerged
    decomposition. ``MERGE_HZ = 0`` merges nothing: the published search.
    """
    K, mu1, mu2 = cfg.k_modes, cfg.mu1, cfg.mu2
    lo, hi = ALPHA_LO, ALPHA_HI
    if init_freqs is not None:
        init_freqs = np.sort(init_freqs)
    path = []
    best, best_violation = None, math.inf   # the least-violating attempt
    ms = None   # the step before's unmerged decomposition, at alpha path[-1][0]
    while True:
        mid = math.sqrt(lo * hi)
        init_spectra = None
        if ms is not None:
            order = np.argsort(ms.center_freqs, kind="stable")
            init_freqs = ms.center_freqs[order]
            prev_alpha = path[-1][0]
            if max(mid / prev_alpha, prev_alpha / mid) <= _SPECTRA_WARM_RATIO:
                init_spectra = ms.spectra[order]
        ms = vmd_decompose(signal, sample_rate, K, mid,
                           init_freqs=init_freqs, init_spectra=init_spectra)
        gated = merge_close_modes(ms, MERGE_HZ)
        r = mode_correlation_max(gated)
        p = energy_loss(gated)
        path.append((mid, r, p))
        feasible = r <= mu1 and p <= mu2
        search = AlphaSearch(mid, gated, feasible, path, ms.center_freqs)
        if feasible:
            return search
        violation = max(r / mu1 - 1.0, 0.0) + (
            max(p / mu2 - 1.0, 0.0) if mu2 > 0 else math.inf
        )
        if best is None or violation < best_violation:
            best, best_violation = search, violation
        if p > mu2:
            hi = mid
        else:
            lo = mid
        if hi / lo < ALPHA_RATIO_TOL:
            return best
