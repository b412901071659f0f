"""The window stage takes alpha, r_max and p from the alpha search."""
from hrrkit import pipeline
from hrrkit.io import write_hr_series, write_mode_dump, write_report
from hrrkit.vmd import energy_loss, mode_correlation_max

from conftest import noisy_recovery


def written(series, report, out):
    out.mkdir()
    write_hr_series(series, out / "hr.csv")
    write_report(report, out / "report.txt")
    write_mode_dump(series, out / "modes.csv")
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_window_stage_does_not_recompute_gate_diagnostics(monkeypatch, tmp_path):
    trace = noisy_recovery(120)
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
