"""Turn measurements into the metrics that BENCHMARK.json declares.

End-to-end metrics come from the untraced run; per-layer metrics come from
the spans of the traced run. Times named ``*_s`` are either the median per
call or the total per operation; ``layers.json`` says which for each.
"""
from __future__ import annotations

import re
import statistics
from collections import defaultdict

from spans import ROOT_NAME, Span, self_times

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

LAYERS = ("signal_model", "radar", "io", "preprocess", "vmd", "mode_select",
          "hr_estimate", "pipeline")
COUNTERS = ("decompose_calls", "admm_sweeps", "unconverged", "gates_relaxed",
            "windows", "bin_switches")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def format_metrics(values: dict, declared: list) -> dict:
    """Attach each declared metric's unit; the names must match exactly."""
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metrics differ from the declaration: missing {missing}, extra {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def op_counters(spans: list[Span]) -> dict[int, dict]:
    """Work counters per operation, read from the wrapped calls' results."""
    out: dict[int, dict] = defaultdict(lambda: dict.fromkeys(COUNTERS, 0))
    for sp in spans:
        c = out[sp.op]
        if sp.name == "vmd.vmd_decompose":
            c["decompose_calls"] += 1
            c["admm_sweeps"] += sp.attrs["n_iters"]
            c["unconverged"] += not sp.attrs["converged"]
        elif sp.name == "pipeline.window_stage":
            c["windows"] += 1
            c["gates_relaxed"] += sp.attrs["status"] == "gates_relaxed"
        elif sp.name == "radar.track_target":
            c["bin_switches"] += sp.attrs["bin_switches"]
    return dict(out)


def layer_metrics(spans: list[Span], overhead: list[float], cube_mb: float) -> dict:
    """Per-layer metrics over all traced operations.

    ``overhead`` holds, per operation, traced minus untraced wall time of the
    same input run back to back.
    """
    st = self_times(spans)
    dur: dict[str, list[float]] = defaultdict(list)
    attrs: dict[str, list[dict]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    root_self = 0.0
    for sp, s in zip(spans, st):
        dur[sp.name].append(sp.duration)
        attrs[sp.name].append(sp.attrs)
        if sp.name == ROOT_NAME:
            root_self += s
        else:
            layer_self[sp.layer] += s
    ops = dur[ROOT_NAME]
    n_ops = len(ops)
    if not n_ops:
        raise ValueError("no traced operation")

    def per_op(*names: str) -> float:
        return sum(sum(dur[n]) for n in names) / n_ops

    def count(name: str, key: str, value=True) -> int:
        return sum(1 for a in attrs[name] if a[key] == value)

    decomps = len(dur["vmd.vmd_decompose"])
    sweeps = sum(a["n_iters"] for a in attrs["vmd.vmd_decompose"])
    windows = len(dur["pipeline.window_stage"])
    frames_sim = sum(a["frames"] for a in attrs["radar.simulate_frames"])
    frames_tracked = sum(a["frames"] for a in attrs["radar.track_target"])
    composite_self = sum(
        s for sp, s in zip(spans, st) if sp.name == "hr_estimate.run_composite_windows"
    )
    m = {
        "vmd.decompose_s": median(dur["vmd.vmd_decompose"]),
        "vmd.decompose_calls": decomps / n_ops,
        "vmd.admm_sweeps": sweeps / n_ops,
        "vmd.us_per_sweep": ratio(sum(dur["vmd.vmd_decompose"]), sweeps) * 1e6,
        "vmd.unconverged_frac": ratio(count("vmd.vmd_decompose", "converged", False), decomps),
        "vmd.gate_diag_s": per_op("vmd.mode_correlation_max", "vmd.energy_loss"),
        "vmd.select_alpha_s": median(dur["vmd.select_alpha"]),
        "vmd.decomps_per_window": ratio(decomps, windows),
        "vmd.share": layer_self["vmd"] / sum(ops),
        "pipeline.window_stage_s": median(dur["pipeline.window_stage"]),
        "pipeline.windows": windows / n_ops,
        "pipeline.gates_relaxed_frac": ratio(
            count("pipeline.window_stage", "status", "gates_relaxed"), windows),
        "pipeline.no_heartbeat_frac": ratio(
            count("pipeline.window_stage", "status", "no_heartbeat"), windows),
        "mode_select.classify_s": median(dur["mode_select.classify_modes"]),
        "mode_select.coincident_frac": ratio(
            count("pipeline.window_stage", "coincident"), windows),
        "hr_estimate.condition_s": median(dur["hr_estimate.condition_heartbeat"]),
        "hr_estimate.detect_s": median(dur["hr_estimate.detect_peaks"]),
        "hr_estimate.composite_self_s": composite_self / n_ops,
        "hr_estimate.report_s": per_op("hr_estimate.build_report"),
        "hr_estimate.carry_frac": ratio(
            sum(a["carry"] for a in attrs["hr_estimate.run_composite_windows"]),
            sum(a["points"] for a in attrs["hr_estimate.run_composite_windows"])),
        "preprocess.bandpass_s": per_op("preprocess.bandpass"),
        "preprocess.difference_s": per_op("preprocess.difference"),
        "radar.simulate_s": per_op("radar.simulate_frames"),
        "radar.simulate_us_per_frame": ratio(sum(dur["radar.simulate_frames"]), frames_sim) * 1e6,
        "radar.track_s": median(dur["radar.track_target"]),
        "radar.track_us_per_frame": ratio(sum(dur["radar.track_target"]), frames_tracked) * 1e6,
        "radar.phase_to_displacement_s": median(dur["radar.phase_to_displacement"]),
        "radar.bin_switches": sum(a["bin_switches"] for a in attrs["radar.track_target"]) / n_ops,
        "io.write_trace_s": median(dur["io.write_trace"]),
        "io.read_trace_s": median(dur["io.read_trace"]),
        "io.write_cube_s": median(dur["io.write_cube"]),
        "io.read_cube_s": median(dur["io.read_cube"]),
        "io.cube_mb": cube_mb,
        "io.write_outputs_s": per_op("io.write_hr_series", "io.write_report", "io.write_mode_dump"),
        "signal_model.synthesize_s": median(dur["signal_model.synthesize_trace"]),
        "trace.op_s": median(ops),
        "trace.overhead_s": median(overhead),
        "trace.unattributed_s": root_self / n_ops,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n_ops
    return m
