"""The window stage keeps its alpha search and mode labels, and ends every
window with a status."""
import math

import numpy as np
import pytest

from hrrkit import pipeline, vmd
from hrrkit.config import PipelineConfig
from hrrkit.errors import DegradedQualityError, InputError
from hrrkit.evaluate import default_scenarios
from hrrkit.hr_estimate import run_composite_windows
from hrrkit.io import read_trace, write_hr_series, write_mode_dump, write_report, write_trace
from hrrkit.preprocess import bandpass
from hrrkit.signal_model import (
    ChestMotionTrace,
    ExponentialRecovery,
    HeartbeatModel,
    RespirationModel,
    noise_std_for_snr,
    synthesize_trace,
)
from hrrkit.vmd import energy_loss, mode_correlation_max

from conftest import noisy_recovery
from test_vmd import allocating_reference, chosen_step


def written(series, report, out):
    out.mkdir()
    write_hr_series(series, out / "hr.csv")
    write_report(report, out / "report.txt")
    write_mode_dump(series, out / "modes.csv")
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_window_stage_does_not_recompute_gate_diagnostics(monkeypatch, tmp_path):
    # Two of this trace's windows relax their gates even on merged sets.
    trace = noisy_recovery(127)
    series, report = pipeline.estimate_trace(trace)

    searches = []
    select_alpha = pipeline.select_alpha

    def recording(*args, **kwargs):
        searches.append(select_alpha(*args, **kwargs))
        return searches[-1]

    def recomputed(ms):
        raise AssertionError("the window stage recomputed a gate diagnostic")

    monkeypatch.setattr(pipeline, "select_alpha", recording)
    monkeypatch.setattr(pipeline, "mode_correlation_max", recomputed)
    monkeypatch.setattr(pipeline, "energy_loss", recomputed)
    patched_series, patched_report = pipeline.estimate_trace(trace)

    assert written(patched_series, patched_report, tmp_path / "patched") == written(
        series, report, tmp_path / "plain"
    )
    # Window results are kept in the order the stage ran, one search each.
    windows = list(patched_series.window_results.values())
    assert [w.mode_table for w in windows] == [
        w.mode_table for w in series.window_results.values()
    ]
    assert len(windows) == len(searches)
    for w, s in zip(windows, searches):
        assert chosen_step(s) == (s.alpha, mode_correlation_max(s.modes), energy_loss(s.modes))
        assert w.search is s
        assert w.mode_table
        if w.status in ("ok", "gates_relaxed"):
            assert (w.status == "ok") == s.feasible
    assert {"ok", "gates_relaxed"} <= {w.status for w in windows}


def first_window(trace, cfg):
    prepared = pipeline.preprocess_trace(trace)
    fs = prepared.sample_rate
    return prepared.samples[: round(cfg.l_a * fs)], fs


def test_window_without_heartbeat_mode():
    cfg = PipelineConfig()
    breathing = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 100.0, 66.0, 0)
    segment, fs = first_window(breathing, cfg)
    w = pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert w.status == "no_heartbeat"
    assert w.peaks is None
    assert w.mode_table == []
    # The window still keeps what its search and labelling found.
    assert w.search is not None and math.isfinite(w.search.alpha)
    assert [lb.mode_index for lb in w.labels] == list(range(w.search.modes.n_modes))
    assert "heartbeat" not in {lb.label for lb in w.labels}


def test_degenerate_window_keeps_its_mode_table(monkeypatch):
    cfg = PipelineConfig()
    segment, fs = first_window(noisy_recovery(120), cfg)
    usable = pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert usable.peaks is not None
    monkeypatch.setattr(pipeline, "condition_heartbeat", lambda *args, **kwargs: None)
    w = pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert w.status == "degenerate"
    assert w.peaks is None
    assert w.search.alpha == usable.search.alpha
    assert w.mode_table == usable.mode_table
    # Merged or not, the table's rows account for each of the K modes once.
    parts = sorted(i for row in w.mode_table for i in row["merged_from"])
    assert parts == list(range(cfg.k_modes))


def refuse_search(*args, **kwargs):
    raise AssertionError("a window ran")


@pytest.mark.parametrize(
    "duration, cfg, match",
    [
        # 60.00 s differences to 59.99 s: its last output, at 59 s, is more
        # than half a cadence short of the report's 60 s.
        (60.0, PipelineConfig(), "recovery report needs HR up to 60 s"),
        # l_a = 66 s, one sample longer than the differenced 66 s trace.
        (66.0, PipelineConfig(l_b_max=33.0), "l_a=66.00 s"),
        # Short of both rules, the l_a rule is the one named.
        (10.0, PipelineConfig(), "l_a=16.00 s"),
    ],
    ids=["60s", "66s-l_b_max33", "10s"],
)
def test_short_trace_is_input_error_before_any_window(monkeypatch, duration, cfg, match):
    resp = RespirationModel(0.35, (1.0, 0.25))
    heart = HeartbeatModel(ExponentialRecovery(152.0, 120.0, 30.0), 0.15)
    trace = synthesize_trace(resp, heart, 0.0, 100.0, duration, 0)
    monkeypatch.setattr(pipeline, "select_alpha", refuse_search)
    with pytest.raises(InputError, match=match):
        pipeline.estimate_trace(trace, cfg)


def test_window_stage_sweeps_half_the_bins_at_100_hz(monkeypatch):
    # A 16 s window mirror-extends to 1920 samples: 960 one-sided bins, of
    # which the 480 below 25 Hz are swept.
    cfg = PipelineConfig()
    segment, fs = first_window(noisy_recovery(120), cfg)
    shapes = []
    decompose = vmd.vmd_decompose

    def recording(*args, **kwargs):
        ms = decompose(*args, **kwargs)
        shapes.append(ms.spectra.shape)
        return ms

    monkeypatch.setattr(vmd, "vmd_decompose", recording)
    pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert shapes and set(shapes) == {(cfg.k_modes, 480)}


def test_twenty_hz_run_equals_its_full_band_run(monkeypatch, tmp_path):
    # At 20 Hz the 25 Hz edge lies above Nyquist, so every bin is swept.
    resp = RespirationModel(0.35, (1.0, 0.25))
    heart = HeartbeatModel(ExponentialRecovery(150.0, 120.0, 30.0), 0.15)
    trace = synthesize_trace(resp, heart, 0.05, 20.0, 66.0, 7)
    series, report = pipeline.estimate_trace(trace)
    monkeypatch.setattr(vmd, "SWEEP_EDGE_HZ", math.inf)
    full_series, full_report = pipeline.estimate_trace(trace)
    assert written(series, report, tmp_path / "edge") == written(
        full_series, full_report, tmp_path / "full"
    )
    assert any(w.peaks is not None for w in series.window_results.values())


def recording_decompositions(monkeypatch):
    """Rebind vmd_decompose to log each call's arguments and result."""
    calls = []
    decompose = vmd.vmd_decompose

    def recording(signal, fs, K, alpha, init_freqs=None, init_spectra=None):
        ms = decompose(signal, fs, K, alpha, init_freqs, init_spectra)
        calls.append((signal, fs, K, alpha, init_freqs, init_spectra, ms))
        return ms

    monkeypatch.setattr(vmd, "vmd_decompose", recording)
    return calls


def test_each_window_starts_where_the_window_before_ended(monkeypatch):
    calls = recording_decompositions(monkeypatch)
    firsts, searches = [], []
    select_alpha = pipeline.select_alpha

    def recording_search(*args, **kwargs):
        firsts.append(len(calls))
        searches.append(select_alpha(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(pipeline, "select_alpha", recording_search)
    series, _ = pipeline.estimate_trace(noisy_recovery(120))
    windows = series.window_results
    assert list(windows) == list(range(len(windows))) and len(searches) == len(windows) > 2
    for k, (first, search) in enumerate(zip(firsts, searches)):
        assert windows[k].search is search
        *_, init_freqs, init_spectra, _ = calls[first]
        assert init_spectra is None
        if k == 0:
            assert init_freqs is None
        else:
            assert np.array_equal(init_freqs, np.sort(windows[k - 1].search.unmerged_freqs))


def test_window_after_a_search_less_one_starts_cold(monkeypatch):
    cfg = PipelineConfig()
    segment, fs = first_window(noisy_recovery(120), cfg)
    stage = pipeline.make_window_stage(cfg)
    idle = stage(np.zeros_like(segment), fs, 0.0)
    assert idle.status == "no_heartbeat" and idle.search is None
    calls = recording_decompositions(monkeypatch)
    after_idle = stage(segment, fs, 8.0, idle)
    assert calls[0][4:6] == (None, None)
    assert after_idle.mode_table == stage(segment, fs, 8.0).mode_table


@pytest.mark.parametrize(
    "level, fs", [(1.0, 100.0), (1e-3, 100.0), (1e3, 100.0), (7.3, 1000.0), (1.0, 20.0)]
)
def test_constant_trace_finds_no_heartbeat(level, fs):
    # Band-passed, a constant trace leaves only the filter's rounding noise.
    constant = ChestMotionTrace(np.full(round(66 * fs), level), fs)
    filtered = bandpass(constant).samples
    assert np.max(np.abs(filtered)) < pipeline.PASSBAND_FLOOR * level
    assert not np.any(pipeline.preprocess_trace(constant).samples)
    with pytest.raises(DegradedQualityError, match="no window produced"):
        pipeline.estimate_trace(constant)


def panel_trace(scenario_name, seed, tmp_path):
    """A benchmark panel's input: an eval scene at 66 s and 100 Hz, read back
    from its trace CSV."""
    scenario = next(s for s in default_scenarios() if s.name == scenario_name)
    subject = scenario.subjects[0]
    noise_std = noise_std_for_snr(subject.resp, subject.heart, scenario.snr_db, 100.0, 66.0)
    trace = synthesize_trace(subject.resp, subject.heart, noise_std, 100.0, 66.0, seed)
    write_trace(trace, tmp_path / "trace.csv")
    return read_trace(tmp_path / "trace.csv")


@pytest.mark.parametrize(
    "scenario_name, seed, n_coincident",
    [("harmonic_coincidence", 133, 7), ("recovery_snr15", 120, 0)],
)
def test_coincident_row_marks_a_harmonic_heartbeat(tmp_path, scenario_name, seed, n_coincident):
    # A window's mode table has a coincident row exactly when its heartbeat
    # label carries a harmonic order, that is, when the coincidence rule
    # chose it; the row is the heartbeat's.
    series, _ = pipeline.estimate_trace(panel_trace(scenario_name, seed, tmp_path))
    windows = list(series.window_results.values())
    assert len(windows) == 7
    for w in windows:
        heartbeats = [lb for lb in w.labels if lb.label == "heartbeat"]
        assert len(heartbeats) <= 1
        coincident = [row["mode_idx"] for row in w.mode_table if row["coincident"]]
        if heartbeats and heartbeats[0].harmonic_order is not None:
            assert coincident == [heartbeats[0].mode_index]
        else:
            assert coincident == []
    assert sum(any(row["coincident"] for row in w.mode_table) for w in windows) == n_coincident


# The recovery_estimate and coincidence_estimate benchmark panels.
@pytest.mark.parametrize(
    "scenario_name, seed",
    [("recovery_snr15", seed) for seed in range(120, 124)]
    + [("harmonic_coincidence", seed) for seed in range(130, 134)],
)
def test_cold_windows_stop_on_the_exact_sum_sweep(monkeypatch, tmp_path, scenario_name, seed):
    # With every window's search started cold, the decompositions are the
    # ones the exact sum of |u_hat - u_prev|^2 ran: on every sweep of every
    # decomposition, the exact sum passes the threshold exactly when the
    # core's stopping quantity does.
    cfg = PipelineConfig()
    prepared = pipeline.preprocess_trace(panel_trace(scenario_name, seed, tmp_path))
    calls = recording_decompositions(monkeypatch)
    stage = pipeline.make_window_stage(cfg)
    run_composite_windows(prepared, cfg, lambda segment, fs, t0, prev: stage(segment, fs, t0))
    assert len(calls) > 10
    for signal, fs, K, alpha, init_freqs, init_spectra, ms in calls:
        record = []
        *_, converged, n_iters = allocating_reference(
            signal, fs, K, alpha, init_freqs, init_spectra, record
        )
        assert (n_iters, converged) == (ms.n_iters, ms.converged)
        for change, norm, exact in record:
            threshold = vmd.TOLERANCE * max(norm, 1e-300)
            assert (exact <= threshold) == (change <= threshold)


def pairwise_correlation_max(ms):
    """mode_correlation_max's definition, taken one mode pair at a time."""
    variances = ms.modes.var(axis=1)
    floor = vmd._NEGLIGIBLE_VAR_FRACTION * max(ms.input_signal.var(), 1e-300)
    usable = np.flatnonzero(variances > floor)
    r_max = 0.0
    for a, i in enumerate(usable):
        for j in usable[a + 1:]:
            u_i, u_j = ms.modes[i], ms.modes[j]
            cov = np.mean(u_i * u_j) - u_i.mean() * u_j.mean()
            r_max = max(r_max, abs(cov) / math.sqrt(variances[i] * variances[j]))
    return r_max


@pytest.mark.parametrize(
    "scenario_name, seed", [("recovery_snr15", 120), ("harmonic_coincidence", 130)]
)
def test_correlation_matches_the_pairwise_form_on_panel_windows(
    monkeypatch, tmp_path, scenario_name, seed
):
    # A gate sits on r, so on the decompositions a panel trace's windows
    # judge, merged or not, the one-product form agrees with the pairwise
    # form to a few rounding errors.
    trace = panel_trace(scenario_name, seed, tmp_path)
    calls = recording_decompositions(monkeypatch)
    pipeline.estimate_trace(trace)
    assert len(calls) > 5
    for *_, ms in calls:
        for gated in (ms, vmd.merge_close_modes(ms, vmd.MERGE_HZ)):
            assert abs(mode_correlation_max(gated) - pairwise_correlation_max(gated)) <= (
                8 * np.finfo(float).eps
            )
