"""Metric names, units and the layer table of the benchmark declaration."""
import json
from pathlib import Path

import pytest

from metrics import LAYERS, NAME_RE, UNIT_RE, format_metrics, layer_metrics, op_counters
from spans import Span

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_TABLE = json.loads((ROOT / "perfbench" / "layers.json").read_text())
ALL = BENCH["end_to_end"] + BENCH["per_layer"]


@pytest.mark.parametrize("name", ["op_s", "vmd.us_per_sweep", "io.cube_mb", "a-b_c.9"])
def test_name_grammar_accepts(name):
    assert NAME_RE.match(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "x y", "x/y", "µs", "x" * 65])
def test_name_grammar_rejects(name):
    assert not NAME_RE.match(name)


@pytest.mark.parametrize("unit", ["s", "s/s", "us", "%", "1/s", "count", "MB"])
def test_unit_grammar_accepts(unit):
    assert UNIT_RE.match(unit)


@pytest.mark.parametrize("unit", ["", "µm", "m s", "x" * 17])
def test_unit_grammar_rejects(unit):
    assert not UNIT_RE.match(unit)


def test_declared_metrics_follow_the_grammar_and_are_unique():
    names = [m["name"] for m in ALL] + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for m in ALL:
        assert NAME_RE.match(m["name"]), m["name"]
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_format_metrics_attaches_units_and_rejects_mismatches():
    declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]
    out = format_metrics({"a_s": 1.5, "b": 2}, declared)
    assert out == {"a_s": {"value": 1.5, "unit": "s"}, "b": {"value": 2.0, "unit": "count"}}
    with pytest.raises(ValueError, match="missing"):
        format_metrics({"a_s": 1.0}, declared)
    with pytest.raises(ValueError, match="extra"):
        format_metrics({"a_s": 1.0, "b": 1, "c": 3}, declared)


def test_layer_table_matches_the_declaration():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert set(LAYER_TABLE) == {m["name"] for m in BENCH["per_layer"]}
    for name, row in LAYER_TABLE.items():
        assert row["layer"] == name.split(".")[0]
        assert row["layer"] in LAYERS + ("trace",)
        assert row["moves"] and set(row["moves"]) <= e2e, name
        assert row["on"] and set(row["on"]) <= workloads, name


def _synthetic_trace():
    """Two operations of an estimate-like call tree with known durations."""
    spans = []

    def add(name, start, end, parent, op, **attrs):
        spans.append(Span(name, start, end, parent, op, attrs))
        return len(spans) - 1

    for op, t in ((1, 0.0), (2, 100.0)):
        root = add("op", t, t + 10.0, None, op)
        est = add("pipeline.estimate_trace", t + 1.0, t + 9.0, root, op)
        comp = add("hr_estimate.run_composite_windows", t + 2.0, t + 8.0, est, op,
                   points=10, carry=1)
        for w, status in enumerate(("ok", "gates_relaxed")):
            w0 = t + 2.5 + 2.5 * w
            stage = add("pipeline.window_stage", w0, w0 + 2.0, comp, op,
                        status=status, coincident=w == 0)
            sel = add("vmd.select_alpha", w0, w0 + 1.5, stage, op)
            add("vmd.vmd_decompose", w0, w0 + 1.0, sel, op, n_iters=100, converged=w == 0)
    return spans


def test_layer_metrics_on_a_synthetic_trace():
    spans = _synthetic_trace()
    m = layer_metrics(spans, overhead=[0.01, 0.03], cube_mb=0.0)
    assert set(m) == set(LAYER_TABLE)
    assert m["vmd.decompose_calls"] == 2.0
    assert m["vmd.admm_sweeps"] == 200.0
    assert m["vmd.us_per_sweep"] == pytest.approx(1e4)
    assert m["vmd.unconverged_frac"] == 0.5
    assert m["vmd.decomps_per_window"] == 1.0
    assert m["pipeline.windows"] == 2.0
    assert m["pipeline.gates_relaxed_frac"] == 0.5
    assert m["mode_select.coincident_frac"] == 0.5
    assert m["hr_estimate.carry_frac"] == 0.1
    # run_composite_windows lasts 6 s, of which its two stages cover 4 s.
    assert m["hr_estimate.composite_self_s"] == pytest.approx(2.0)
    assert m["trace.overhead_s"] == pytest.approx(0.02)
    assert m["trace.op_s"] == 10.0
    # Layer self times plus the unattributed remainder account for the op.
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.op_s"])
    # Per window, select_alpha (1.5 s, decomposition included) is all vmd.
    assert m["vmd.share"] == pytest.approx(3.0 / 10.0)


def test_op_counters_per_operation():
    counters = op_counters(_synthetic_trace())
    assert set(counters) == {1, 2}
    assert counters[1] == counters[2] == {
        "decompose_calls": 2, "admm_sweeps": 200, "unconverged": 1,
        "gates_relaxed": 1, "windows": 2, "bin_switches": 0,
    }
