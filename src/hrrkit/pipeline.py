"""End-to-end composition: preprocess, decompose, select, count, report."""
from __future__ import annotations

from typing import Optional

import numpy as np

from .config import PipelineConfig
from .errors import InputError
from .hr_estimate import (
    HrrReport,
    HrSeries,
    StageFn,
    WindowResult,
    build_report,
    condition_heartbeat,
    detect_peaks,
    run_composite_windows,
)
from .mode_select import classify_modes
from .preprocess import bandpass, difference
from .signal_model import ChestMotionTrace
from .vmd import select_alpha
# Not called here: perfbench's tracer looks both up on this module by name
# (make_tracer), so they stay importable until its plan drops them.
from .vmd import energy_loss, mode_correlation_max  # noqa: F401


# A nonzero trace's peak |sample| must lie in this range, in mm. Far outside
# it the squared mode spectra of the decomposition overflow (an internal
# failure) or fall below its power floor (a wrong report). The 66 s recovery
# trace, peak 1.54 mm, gives its unscaled report when scaled by 1e-148 up to
# 1e152 at 100 Hz; the range keeps clear of both ends, also at 20 and 1000 Hz.
PEAK_RANGE_MM = (1e-140, 1e151)
# A band-passed trace whose peak |sample| is below this share of the input's
# holds only the filter's rounding noise: a constant trace gives 1.2e-13 at
# 100 Hz and up to 1e-11 at 1000 Hz, the stock scenarios 0.91 to 1.12.
PASSBAND_FLOOR = 1e-9


def make_window_stage(cfg: PipelineConfig) -> StageFn:
    """Build the per-window stage: adaptive decomposition through peak detection.

    When no penalty factor satisfies both gates, the least-violating
    decomposition is used and the window is flagged ``gates_relaxed``
    rather than dropped, so the output curve stays continuous.

    The alpha search's first step starts at the center frequencies where
    the previous window's search ended, with its mode spectra cold, since
    the two segments differ. Without a previous window, or after one that
    ran no search, it starts cold.
    """
    def stage(segment: np.ndarray, fs: float, t0: float,
              prev: Optional[WindowResult] = None) -> WindowResult:
        if not np.any(segment):
            return WindowResult(t0, None, "no_heartbeat")
        search = select_alpha(
            segment,
            fs,
            cfg,
            init_freqs=prev.search.unmerged_freqs if prev and prev.search else None,
        )
        labels, hb_index = classify_modes(search.modes)
        if hb_index is None:
            return WindowResult(t0, None, "no_heartbeat", search, labels)
        conditioned = condition_heartbeat(search.modes.modes[hb_index], fs)
        if conditioned is None:
            return WindowResult(t0, None, "degenerate", search, labels)
        train = detect_peaks(conditioned, fs).shifted(t0)
        status = "ok" if search.feasible else "gates_relaxed"
        return WindowResult(t0, train, status, search, labels)

    return stage


def preprocess_trace(trace: ChestMotionTrace) -> ChestMotionTrace:
    """Vital-band filter followed by the first difference.

    A filtered trace below ``PASSBAND_FLOOR`` of the input's peak is set to
    zero, so it finds no heartbeat, as an all-zero trace does.
    """
    filtered = bandpass(trace)
    peak = np.max(np.abs(trace.samples), initial=0.0)
    if np.max(np.abs(filtered.samples), initial=0.0) < PASSBAND_FLOOR * peak:
        filtered = ChestMotionTrace(np.zeros_like(filtered.samples), filtered.sample_rate,
                                    filtered.ground_truth)
    return difference(filtered)


def estimate_trace(
    trace: ChestMotionTrace,
    cfg: Optional[PipelineConfig] = None,
) -> tuple[HrSeries, HrrReport]:
    """Run the full pipeline on a displacement trace and build the report.

    Ground truth attached to the trace (synthetic runs) is scored into the
    report's mean absolute error. A nonzero trace whose peak |sample| lies
    outside ``PEAK_RANGE_MM``, and a trace whose first difference is too
    short for the windows or the report (see ``run_composite_windows``),
    raise InputError before any window runs. An all-zero trace runs, and
    finds no heartbeat; so does a trace with nothing in the vital band, such
    as a constant one (``preprocess_trace``).
    """
    cfg = cfg or PipelineConfig()
    peak = float(np.max(np.abs(trace.samples), initial=0.0))
    lo, hi = PEAK_RANGE_MM
    if peak != 0.0 and not lo <= peak <= hi:
        raise InputError(
            f"trace peak |displacement| {peak:g} mm lies outside [{lo:g}, {hi:g}] mm"
        )
    prepared = preprocess_trace(trace)
    series = run_composite_windows(prepared, cfg, make_window_stage(cfg))
    truth = None
    gt = trace.ground_truth
    if gt is not None and gt.heartbeat is not None:
        truth = gt.heartbeat.rate_trajectory
    report = build_report(series, truth=truth)
    return series, report
