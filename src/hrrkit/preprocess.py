"""Trace conditioning: vital-band filtering and the energy-rebalancing difference.

The band-pass keeps 0.2-3.4 Hz (just above the 0.167 Hz adult respiratory
floor, and up to 204 bpm, below the 220 bpm detector ceiling) and is
applied forward-backward so peak timing downstream is undistorted. The
first difference then tilts the spectrum, deflating the dominant
low-frequency respiration relative to heartbeat and respiratory-harmonic
content before decomposition.
"""
from __future__ import annotations

import numpy as np

from .signal_model import ChestMotionTrace

# Pass band of the vital-band filter, in Hz. Every trace is sampled at
# MIN_SAMPLE_RATE_HZ = 20 Hz or faster, so the upper edge is below Nyquist.
PASS_LOW_HZ = 0.2
PASS_HIGH_HZ = 3.4

_FILTER_ORDER = 4  # per band edge; applied twice (forward-backward)

# Samples per block of the block state-space filter: a padded 66 s pass at
# 100 Hz is about 150 blocks.
_BLOCK = 64


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
    Each pass runs the cascade ``_BLOCK`` samples at a time in its
    state-space form (``_block_form``): every block's zero-state response
    comes from one Toeplitz product, the states at the block boundaries from
    a short recurrence over the blocks, and their zero-input responses from
    one more product. This is the arithmetic of running each section in
    direct form II transposed, sample by sample, regrouped: the two agree
    within about 1e-12 of the output's peak, not bit for bit.
    """
    x = np.asarray(x, dtype=float)
    x = np.concatenate((2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2:-(padlen + 2):-1]))
    zi = _steady_state(sos).reshape(-1)
    form = _block_form(sos)
    y = _block_filter(form, x, zi * x[0])
    y = _block_filter(form, y[::-1], zi * y[-1])[::-1]
    return y[padlen:len(y) - padlen].copy()


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """Per-section filter state once a unit step at the input has settled."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for si, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        zi[si] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _block_form(sos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cascade's block state-space matrices for blocks of ``_BLOCK`` samples.

    The state s stacks each section's two direct-form-II-transposed states,
    section 0 first, as ``_steady_state`` lays them out. One sample steps
    s' = A s + B u with output y = C s + D u. Over a block of L samples
    u_0..u_{L-1} starting in state s, the outputs are ``toeplitz @ u +
    free @ s``, and the state after the block is ``carry @ s + drive @ u``.
    Returns ``(toeplitz, drive, carry, free)``: the (L, L) lower-triangular
    matrix of the impulse response D, CB, CAB, ...; the (n, L) matrix whose
    column j is A^(L-1-j) B; A^L; and the (L, n) matrix whose row i is C A^i.
    """
    n = 2 * len(sos)
    # Each signal is a row of its weights on the states and, last, the input.
    v = np.zeros(n + 1)
    v[n] = 1.0
    step = np.zeros((n, n + 1))
    for si, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        w = b0 * v
        w[2 * si] += 1.0
        step[2 * si] = b1 * v - a1 * w
        step[2 * si, 2 * si + 1] += 1.0
        step[2 * si + 1] = b2 * v - a2 * w
        v = w
    a, b, c, d = step[:, :n], step[:, n], v[:n], v[n]
    powers = [np.eye(n)]
    for _ in range(_BLOCK):
        powers.append(powers[-1] @ a)
    powers = np.array(powers)
    free = c @ powers[:_BLOCK]                    # row i: C A^i
    response = np.concatenate(([d], free[:-1] @ b))   # D, CB, CAB, ...
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz = np.where(lag >= 0, response[np.maximum(lag, 0)], 0.0)
    drive = (powers[_BLOCK - 1::-1] @ b).T        # column j: A^(L-1-j) B
    return toeplitz, drive, powers[_BLOCK], free


def _block_filter(form: tuple, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Run ``x`` through the cascade from state ``zi``, ``_BLOCK`` samples at a time.

    The last block is zero-filled to full length; being causal, the cascade
    gives the real samples the same outputs either way. The block products
    go through ``np.einsum``, not BLAS: a BLAS build that runs products this
    large on several threads took 4-8 ms for the Toeplitz product instead of
    0.02 ms on a 2-vCPU host.
    """
    toeplitz, drive, carry, free = form
    n_blocks = -(-len(x) // _BLOCK)
    blocks = np.zeros((n_blocks, _BLOCK))
    blocks.reshape(-1)[:len(x)] = x
    states = np.empty((n_blocks, len(zi)))
    states[0] = zi
    kicks = np.einsum("bj,sj->bs", blocks, drive)
    for k in range(1, n_blocks):
        np.dot(carry, states[k - 1], out=states[k])
        states[k] += kicks[k - 1]
    y = np.einsum("bj,ij->bi", blocks, toeplitz)
    y += np.einsum("bs,is->bi", states, free)
    return y.reshape(-1)[:len(x)]


def bandpass(trace: ChestMotionTrace) -> ChestMotionTrace:
    """Zero-phase band-pass of the trace to the vital band.

    Forward-backward 4th-order Butterworth filter; the pad length is sized
    to several periods of the lowest passband frequency so edge transients
    of the high-pass section settle.
    """
    fs = trace.sample_rate
    sos = butter_bandpass_sos(PASS_LOW_HZ, PASS_HIGH_HZ, fs)
    padlen = min(len(trace.samples) - 1, int(3.0 * fs / PASS_LOW_HZ))
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
