"""The window stage takes alpha, r_max and p from the alpha search, and
ends every window with a status."""
import math
from dataclasses import replace

from hrrkit import pipeline, vmd
from hrrkit.config import PipelineConfig
from hrrkit.io import write_hr_series, write_mode_dump, write_report
from hrrkit.signal_model import (
    ExponentialRecovery,
    HeartbeatModel,
    RespirationModel,
    synthesize_trace,
)
from hrrkit.vmd import energy_loss, mode_correlation_max

from conftest import noisy_recovery


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
        assert s.r_max == mode_correlation_max(s.modes)
        assert s.p == energy_loss(s.modes)
        assert w.alpha == s.alpha
        assert w.mode_table
        for row in w.mode_table:
            assert (row["alpha"], row["r_max"], row["p"]) == (s.alpha, s.r_max, s.p)
        if w.status in ("ok", "gates_relaxed"):
            assert (w.status == "ok") == s.feasible
    assert {"ok", "gates_relaxed"} <= {w.status for w in windows}


def first_window(trace, cfg):
    prepared = pipeline.preprocess_trace(trace, cfg)
    fs = prepared.sample_rate
    return prepared.samples[: round(cfg.window_config().l_a * fs)], fs


def test_window_without_heartbeat_mode():
    cfg = PipelineConfig()
    breathing = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 100.0, 66.0, 0)
    segment, fs = first_window(breathing, cfg)
    w = pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert w.status == "no_heartbeat"
    assert w.peaks is None
    assert w.mode_table == []
    assert math.isfinite(w.alpha)


def test_degenerate_window_keeps_its_mode_table(monkeypatch):
    cfg = PipelineConfig()
    segment, fs = first_window(noisy_recovery(120), cfg)
    usable = pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert usable.peaks is not None
    monkeypatch.setattr(pipeline, "condition_heartbeat", lambda *args, **kwargs: None)
    w = pipeline.make_window_stage(cfg)(segment, fs, 0.0)
    assert w.status == "degenerate"
    assert w.peaks is None
    assert w.alpha == usable.alpha
    assert w.mode_table == usable.mode_table
    # Merged or not, the table's rows account for each of the K modes once.
    parts = sorted(i for row in w.mode_table for i in row["merged_from"])
    assert parts == list(range(cfg.k_modes))


def test_sweep_edge_follows_the_pass_band():
    assert PipelineConfig().vmd_params().max_freq == 25.0
    assert PipelineConfig(pass_high=10.0).vmd_params().max_freq == 40.0


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
    cfg = PipelineConfig()
    series, report = pipeline.estimate_trace(trace, cfg)
    full_band = replace(cfg.vmd_params(), max_freq=None)
    monkeypatch.setattr(PipelineConfig, "vmd_params", lambda self: full_band)
    full_series, full_report = pipeline.estimate_trace(trace, cfg)
    assert written(series, report, tmp_path / "edge") == written(
        full_series, full_report, tmp_path / "full"
    )
    assert any(w.peaks is not None for w in series.window_results.values())
