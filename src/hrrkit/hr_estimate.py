"""HR tracking by peak counting over composite sliding windows.

The selected heartbeat mode is smoothed, normalized by its envelope, and
reduced to a train of beat peaks. HR then comes from counting inter-peak
intervals inside a variable-size window W_b whose endpoints coincide with
peaks and whose length never falls below an adaptive floor l_min. W_b
slides at the output cadence inside a larger analysis window W_a (the
decomposition window); W_a advances by one stride exactly when W_b's left
endpoint enters the next placement's range, which keeps W_a minimal while
always containing W_b. Two passes are made: the first with the default
l_min, the second with l_min adapted per point to the first-pass HR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import DegradedQualityError, InputError
from .mode_select import LABEL_HEARTBEAT, ModeLabel
from .signal_model import ChestMotionTrace
from .vmd import AlphaSearch

if TYPE_CHECKING:
    from .config import PipelineConfig

PEAK_AMPLITUDE_FLOOR = 0.5
PEAK_MIN_INTERVAL_S = 0.27   # 220 bpm ceiling
HR_MIN_BPM = 36.0
HR_MAX_BPM = 220.0

SMOOTH_WINDOW = 0.12    # s, heartbeat smoother length
ENVELOPE_FLOOR = 0.1    # envelope floor, fraction of its median
CARRY_LIMIT = 0.5       # largest tolerated fraction of carried points
REPORT_TIME_S = 60.0    # s, the report's recovery is the HR drop up to this time
CADENCE = 1.0           # s, output step
# Bounds of the second pass's adapted l_min, in s. The upper one is
# deliberately below l_b_max: with l_min == l_b_max the advance rule can
# never fire (W_b spans a whole stride) and W_a stalls.
L_MIN_BOUNDS = (3.0, 7.0)

FLAG_OK = "ok"
FLAG_CARRY = "carry"
FLAG_CLAMPED = "clamped"

# W_a liveness guard: when the freshest countable peak falls this far behind
# the output time, the analysis window advances even though W_b's left
# endpoint has not crossed into the next placement (possible when peaks thin
# out near a window edge).
_STALE_LIMIT_S = 2.0


@dataclass(frozen=True)
class PeakTrain:
    """Sorted beat instants in seconds, gaps no smaller than the detector floor."""

    peak_times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.peak_times, dtype=float)
        object.__setattr__(self, "peak_times", times)
        if times.ndim != 1:
            raise ValueError("peak_times must be one-dimensional")
        if len(times) >= 2:
            gaps = np.diff(times)
            if gaps.min() < PEAK_MIN_INTERVAL_S - 1e-9:
                raise ValueError(
                    f"consecutive peaks closer than {PEAK_MIN_INTERVAL_S} s "
                    f"(min gap {gaps.min():.4f})"
                )

    def __len__(self) -> int:
        return len(self.peak_times)

    def shifted(self, offset: float) -> "PeakTrain":
        return PeakTrain(self.peak_times + offset)


def condition_heartbeat(mode: np.ndarray, fs: float) -> Optional[np.ndarray]:
    """Smooth the heartbeat mode and normalize its amplitude by the envelope.

    The smoother is a running mean over ``SMOOTH_WINDOW``. The envelope is a
    cubic spline through the local maxima of the smoothed absolute signal,
    held constant beyond the outermost maxima and floored at
    ``ENVELOPE_FLOOR`` times its median so quiet stretches cannot blow up
    the division. Returns None for a mode too flat to normalize: all zero,
    fewer than two envelope maxima, or a non-positive floor.
    """
    x = np.asarray(mode, dtype=float)
    if not np.any(x):
        return None
    win = max(1, round(SMOOTH_WINDOW * fs))
    if win % 2 == 0:
        win += 1  # odd length keeps the smoother zero-phase
    smoothed = _running_mean(x, win)
    magnitude = np.abs(smoothed)
    maxima = _find_peaks(magnitude)
    if len(maxima) < 2:
        return None
    knots_i = np.concatenate(([0], maxima, [len(x) - 1]))
    knots_v = magnitude[knots_i]
    knots_v[0] = magnitude[maxima[0]]
    knots_v[-1] = magnitude[maxima[-1]]
    envelope = _natural_spline(knots_i, knots_v, np.arange(len(x)))
    floor = ENVELOPE_FLOOR * np.median(envelope)
    if floor <= 0.0:
        return None
    envelope = np.maximum(envelope, floor)
    return smoothed / envelope


def detect_peaks(signal: np.ndarray, fs: float) -> PeakTrain:
    """Beat peaks of a normalized signal.

    A peak is a local maximum of amplitude >= 0.5; when two candidates fall
    within 0.27 s the higher one wins (greedy suppression).
    """
    x = np.asarray(signal, dtype=float)
    distance = max(1, math.ceil(PEAK_MIN_INTERVAL_S * fs))
    idx = _find_peaks(x, height=PEAK_AMPLITUDE_FLOOR, distance=distance)
    return PeakTrain(idx / fs)


def _running_mean(x: np.ndarray, size: int) -> np.ndarray:
    """Centred mean over an odd ``size`` samples, the ends extended by repetition.

    A running sum starts from the first window, summed in order, and adds
    (entering - leaving sample) per step; each output is that sum / size.
    """
    half = size // 2
    ext = np.concatenate((np.full(half, x[0]), x, np.full(half, x[-1])))
    first = np.cumsum(ext[:size])[-1]
    return np.cumsum(np.concatenate(([first], ext[size:] - ext[:-size]))) / size


def _find_peaks(x: np.ndarray, height: Optional[float] = None,
                distance: Optional[int] = None) -> np.ndarray:
    """Indices of the local maxima of ``x``, in increasing order.

    A maximum is a sample, or a flat run of equal samples, with a strictly
    smaller neighbour on each side; a flat run counts once, at its midpoint
    (rounded down). Maxima below ``height`` are dropped. With ``distance``,
    maxima are visited from the highest down, and each one still kept
    removes every other maximum less than ``distance`` samples away.
    """
    n = len(x)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:] - 1, n - 1)
    inner = (starts > 0) & (ends < n - 1)
    starts, ends = starts[inner], ends[inner]
    is_peak = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[ends])
    peaks = (starts[is_peak] + ends[is_peak]) // 2
    if height is not None:
        peaks = peaks[x[peaks] >= height]
    if distance is not None:
        keep = np.ones(len(peaks), dtype=bool)
        for j in np.argsort(x[peaks])[::-1].tolist():
            if keep[j]:
                lo = np.searchsorted(peaks, peaks[j] - distance, side="right")
                hi = np.searchsorted(peaks, peaks[j] + distance, side="left")
                keep[lo:j] = False
                keep[j + 1:hi] = False
        peaks = peaks[keep]
    return peaks


def _natural_spline(knots: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (knots, values), evaluated at ``at``.

    The knot slopes solve the tridiagonal continuity system with zero
    second derivative at both ends; each interval is then the cubic Hermite
    polynomial on its end values and slopes.
    """
    knots = np.asarray(knots, dtype=float)
    at = np.asarray(at, dtype=float)
    h = np.diff(knots)
    secant = np.diff(values) / h
    diag = np.empty(len(knots))
    diag[0], diag[-1] = 2 * h[0], 2 * h[-1]
    diag[1:-1] = 2 * (h[:-1] + h[1:])
    upper = np.concatenate((h[:1], h[:-1]))
    lower = np.concatenate((h[1:], h[-1:]))
    rhs = np.empty(len(knots))
    rhs[0] = 3 * (values[1] - values[0])
    rhs[-1] = 3 * (values[-1] - values[-2])
    rhs[1:-1] = 3 * (h[1:] * secant[:-1] + h[:-1] * secant[1:])
    slope = _solve_tridiagonal(lower, diag, upper, rhs)
    t = (slope[:-1] + slope[1:] - 2 * secant) / h
    c3, c2, c1, c0 = t / h, (secant - slope[:-1]) / h - t, slope[:-1], values[:-1]
    i = np.clip(np.searchsorted(knots, at, side="right") - 1, 0, len(knots) - 2)
    s = at - knots[i]
    s2 = s * s
    return c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)


def _solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system by elimination with partial pivoting.

    ``lower[i]`` is row i+1's entry left of the diagonal and ``upper[i]`` row
    i's entry right of it. A row swap at step i puts a fill-in entry two
    places right of the diagonal, kept in ``lower[i]``.
    """
    dl, d, du, b = (v.tolist() for v in (lower, diag, upper, rhs))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    # Back substitution, in place of the right-hand side.
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


@dataclass(frozen=True)
class HrEstimate:
    hr_bpm: float
    l_b: float
    window_start: float   # time of the first peak in W_b
    window_end: float     # time of the last peak in W_b


def count_hr(train: PeakTrain, t: float, l_min: float) -> Optional[HrEstimate]:
    """HR at time t from the peak-delimited window ending at the last peak <= t.

    The window start is the latest earlier peak keeping the span at or above
    l_min; with both endpoints on peaks, N peaks span N-1 beats, so
    HR = (N - 1) / l_b * 60. Returns None when no such window exists.
    """
    times = train.peak_times
    end = int(np.searchsorted(times, t, side="right")) - 1
    if end < 1:
        return None
    target = times[end] - l_min
    start = int(np.searchsorted(times[: end + 1], target, side="right")) - 1
    # times[end] - l_min can round onto a peak time whose span to the end
    # is still below l_min; step back past it.
    while start >= 0 and times[end] - times[start] < l_min:
        start -= 1
    if start < 0:
        return None
    l_b = float(times[end] - times[start])
    return HrEstimate(
        hr_bpm=(end - start) * 60.0 / l_b,
        l_b=l_b,
        window_start=float(times[start]),
        window_end=float(times[end]),
    )


def adapt_lmin(prev_hr: float) -> float:
    """Counting-window floor targeting ~10 beats: clamp(600/HR, L_MIN_BOUNDS)."""
    lo, hi = L_MIN_BOUNDS
    if prev_hr <= 0:
        return hi
    return float(min(max(600.0 / prev_hr, lo), hi))


@dataclass
class WindowResult:
    """Output of the per-W_a stage (decomposition + selection + detection)."""

    start_time: float
    peaks: Optional[PeakTrain]            # absolute times, None if unusable
    status: str = "ok"                    # ok | gates_relaxed | no_heartbeat | degenerate
    search: Optional[AlphaSearch] = None  # None when the window ran no search
    labels: list[ModeLabel] = field(default_factory=list)  # of search.modes

    @property
    def mode_table(self) -> list[dict]:
        """The window's modes.csv rows, each also saying whether the coincidence
        rule chose it; [] when no mode is the heartbeat."""
        if not any(lb.label == LABEL_HEARTBEAT for lb in self.labels):
            return []
        ms = self.search.modes
        total_energy = max(ms.input_energy, 1e-300)
        merged_from = ms.merged_from or tuple((i,) for i in range(ms.n_modes))
        return [
            {
                "window_start_s": self.start_time,
                "mode_idx": lb.mode_index,
                "omega_hz": float(ms.center_freqs[lb.mode_index]),
                "energy_share": lb.energy / total_energy,
                "label": lb.label,
                "peak_freq_hz": lb.peak_freq,
                "energy": lb.energy,
                "coincident": lb.label == LABEL_HEARTBEAT and lb.harmonic_order is not None,
                "merged_from": merged_from[lb.mode_index],
            }
            for lb in self.labels
        ]


# stage(segment, fs, t0, prev): prev is the WindowResult of the placement
# before, None for the first.
StageFn = Callable[[np.ndarray, float, float, Optional[WindowResult]], WindowResult]


@dataclass
class HrPoint:
    time: float
    hr_bpm: float
    l_b: float
    flag: str
    wa_index: int         # W_a spans [wa_index * stride, that + l_a]
    wb_start: float
    wb_end: float
    hr_first_pass: float = math.nan  # default-l_min estimate at this time


@dataclass
class HrSeries:
    """Timestamped HR estimates at a fixed cadence plus window diagnostics."""

    points: list[HrPoint]
    window_results: dict[int, WindowResult]

    @property
    def times(self) -> np.ndarray:
        return np.array([p.time for p in self.points])

    @property
    def hr_bpm(self) -> np.ndarray:
        return np.array([p.hr_bpm for p in self.points])

    @property
    def flags(self) -> list[str]:
        return [p.flag for p in self.points]

    def value_at(self, t: float) -> HrPoint:
        times = self.times
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > CADENCE / 2 + 1e-9:
            raise ValueError(f"series has no point within half a cadence of t={t}")
        return self.points[i]


def run_composite_windows(
    trace: ChestMotionTrace,
    cfg: PipelineConfig,
    stage: StageFn,
) -> HrSeries:
    """Sweep W_b at the output cadence, advancing W_a per the containment rule.

    Runs the stage once per W_a placement (cached), in placement order, and
    hands it the previous placement's result. W_a is ``cfg.l_a`` long and
    advances by ``cfg.stride``. Makes a pass with l_min = ``cfg.l_min``,
    then repeats with l_min adapted per point from the first pass.
    Windows with no usable heartbeat carry the last valid estimate forward,
    flagged. DegradedQualityError is raised when no window gives an
    estimate, when the series starts too late to have a point at
    REPORT_TIME_S (naming the first estimate's time), and when more than
    ``CARRY_LIMIT`` of the points are carried.

    Before any window runs, a trace shorter than ``cfg.l_a``, or one whose
    output grid ends short of REPORT_TIME_S less half a cadence, raises
    InputError, in that order.
    """
    fs = trace.sample_rate
    x = trace.samples
    duration = trace.duration
    if duration < cfg.l_a:
        raise InputError(
            f"trace duration {duration:.2f} s is shorter than the analysis "
            f"window l_a={cfg.l_a:.2f} s"
        )
    grid = output_times(duration)
    last = grid[-1] if len(grid) else 0.0
    if last < REPORT_TIME_S - CADENCE / 2:
        raise InputError(
            f"trace lasts {duration:.2f} s but the recovery report needs "
            f"HR up to {REPORT_TIME_S:g} s (last output at {last:.2f} s)"
        )
    k_max = int(math.floor((duration - cfg.l_a) / cfg.stride + 1e-9))
    cache: dict[int, WindowResult] = {}

    def estimate_at(k: int, t: float, l_min: float) -> Optional[HrEstimate]:
        if k not in cache:
            t0 = k * cfg.stride
            i0 = round(t0 * fs)
            i1 = min(round((t0 + cfg.l_a) * fs), len(x))
            # Both passes advance k one placement at a time from 0, so k - 1
            # has always run.
            cache[k] = stage(x[i0:i1], fs, t0, cache.get(k - 1))
        peaks = cache[k].peaks
        return None if peaks is None else count_hr(peaks, t, l_min)

    # One l_min per grid time in, one entry per grid time out: None before
    # the pass's first estimate, a point at every grid time after it.
    def sweep(l_mins: list[float]) -> list[Optional[HrPoint]]:
        k = 0
        points: list[Optional[HrPoint]] = []
        last_valid: Optional[float] = None
        for t, l_min in zip(grid, l_mins):
            est = estimate_at(k, t, l_min)
            # Advance W_a while the (nominal) left endpoint of W_b has
            # entered the next placement's range, or the window has gone
            # stale (no countable peak near t).
            while k < k_max:
                left = est.window_start if est is not None else t - l_min
                stale = est is not None and (t - est.window_end) > _STALE_LIMIT_S
                if left >= (k + 1) * cfg.stride or stale:
                    k += 1
                    est = estimate_at(k, t, l_min)
                else:
                    break
            if est is None:
                if last_valid is None:
                    points.append(None)  # nothing to carry yet; series starts later
                else:
                    points.append(
                        HrPoint(float(t), last_valid, math.nan, FLAG_CARRY, k, math.nan, math.nan)
                    )
                continue
            hr = min(max(est.hr_bpm, HR_MIN_BPM), HR_MAX_BPM)
            flag = FLAG_OK if hr == est.hr_bpm else FLAG_CLAMPED
            last_valid = hr
            points.append(
                HrPoint(float(t), hr, est.l_b, flag, k, est.window_start, est.window_end)
            )
        return points

    first = sweep([cfg.l_min] * len(grid))
    start = next((i for i, p in enumerate(first) if p is not None), None)
    if start is None:
        raise DegradedQualityError("no window produced a usable HR estimate")
    # Grid index i identifies the first-pass point: first[max(i, start)].
    second = sweep([adapt_lmin(first[max(i, start)].hr_bpm) for i in range(len(grid))])
    points = [p for p in second if p is not None]
    if points and points[0].time > REPORT_TIME_S + CADENCE / 2:
        raise DegradedQualityError(
            f"the first HR estimate is at {points[0].time:g} s, after the "
            f"report time {REPORT_TIME_S:g} s"
        )
    for p, q in zip(second[start:], first[start:]):
        if p is not None:
            p.hr_first_pass = q.hr_bpm
    n_carry = sum(1 for p in points if p.flag == FLAG_CARRY)
    if points and n_carry > CARRY_LIMIT * len(points):
        raise DegradedQualityError(
            f"{n_carry}/{len(points)} output points carried forward "
            f"(limit {CARRY_LIMIT:.0%})"
        )
    return HrSeries(points=points, window_results=cache)


def output_times(duration: float) -> np.ndarray:
    """The output grid: every ``CADENCE`` step within ``duration``.

    Once the series has started, a point is emitted at every grid time, so
    the last grid time is the series' last point.
    """
    n_steps = int(math.floor(duration / CADENCE + 1e-9))
    return np.arange(1, n_steps + 1) * CADENCE


@dataclass
class HrrReport:
    """Recovery summary over the observation window."""

    initial_hr: float
    hr_at_60s: float
    hrr_60: float
    mean_abs_error: Optional[float] = None
    n_points: int = 0
    n_carry: int = 0

    def as_dict(self) -> dict:
        d = {
            "initial_hr_bpm": self.initial_hr,
            "hr_at_60s_bpm": self.hr_at_60s,
            "hrr_60_bpm": self.hrr_60,
            "n_points": self.n_points,
            "n_carry": self.n_carry,
        }
        if self.mean_abs_error is not None:
            d["mean_abs_error_bpm"] = self.mean_abs_error
        return d


def build_report(
    series: HrSeries,
    truth: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> HrrReport:
    """Summarize a recovery run: initial HR, HR at 60 s, and their difference.

    ``truth`` is an instantaneous-HR trajectory; when given, the mean
    absolute error over all emitted points (carried ones included) is
    recorded.
    """
    if not series.points:
        raise ValueError("empty HR series")
    initial = next(p.hr_bpm for p in series.points if p.flag != FLAG_CARRY)
    at60 = series.value_at(REPORT_TIME_S).hr_bpm
    mae = None
    if truth is not None:
        truth_hr = np.asarray(truth(series.times), dtype=float)
        mae = float(np.mean(np.abs(truth_hr - series.hr_bpm)))
    return HrrReport(
        initial_hr=float(initial),
        hr_at_60s=float(at60),
        hrr_60=float(initial - at60),
        mean_abs_error=mae,
        n_points=len(series.points),
        n_carry=sum(1 for p in series.points if p.flag == FLAG_CARRY),
    )
