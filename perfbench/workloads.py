"""The benchmark's workloads: inputs, one operation, and its output check.

Every workload owns a fixed panel of input realizations. Operation ``i`` of
a run uses panel member ``(seed + i) % len(panel)``, so the seed sets the
order in which the panel is visited and which member is operation 0 (the one
re-run for the determinism check), while every run measures the same work.
Per-realization work differs a lot (ADMM sweeps on the recovery trace range
from 6.7k to 16.3k over seeds 0-9), so inputs drawn afresh per seed would
make op time vary by more than any useful regression bound.

The package functions are called through their module attributes
(``hio.read_trace``, ``pipeline.estimate_trace``, ...), so the traced run
sees these calls when it rebinds those attributes.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hrrkit import io as hio
from hrrkit import pipeline, radar, signal_model
from hrrkit.hr_estimate import FLAG_CARRY, HR_MAX_BPM, HR_MIN_BPM
from hrrkit.signal_model import (
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
)

SAMPLE_RATE = 100.0
DURATION = 66.0
PANEL_SIZE = 4
# Noiseless radar round trip must stay within 2% relative RMS (acceptance
# criterion 6); the noisy scene here sits near 0.4%.
RADAR_REL_RMS_LIMIT = 0.02
WINDOW_STATUSES = {"ok", "gates_relaxed", "no_heartbeat", "degenerate"}


@dataclass(frozen=True)
class Subject:
    resp: RespirationModel
    heart: HeartbeatModel
    base_range: float = 1.0


def noise_std_for(subject: Subject, snr_db: float) -> float:
    """Additive-noise sigma that puts the displacement at ``snr_db``."""
    clean = signal_model.synthesize_trace(
        subject.resp, subject.heart, 0.0, SAMPLE_RATE, DURATION, 0
    )
    rms = float(np.sqrt(np.mean(clean.samples**2)))
    return rms * 10.0 ** (-snr_db / 20.0)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


@dataclass
class Checked:
    """Outcome of one operation's output check."""

    problems: list
    digest: str
    measures: dict    # accuracy and sizes, deterministic per input


def hr_accuracy(series, report, truth) -> dict:
    """MAE, max error and HRR error of one estimate against its trajectory."""
    truth_hr = np.asarray(truth(series.times), dtype=float)
    err = np.abs(series.hr_bpm - truth_hr)
    t_first = next(p.time for p in series.points if p.flag != FLAG_CARRY)
    true_hrr = float(truth(t_first) - truth(60.0))
    return {
        "mae_bpm": float(np.mean(err)),
        "max_err_bpm": float(np.max(err)),
        "hrr60_err_bpm": abs(report.hrr_60 - true_hrr),
    }


def check_estimate(series, report, truth) -> tuple[list, dict]:
    """Structural checks on an HR series and its report, plus its accuracy."""
    problems = []
    hr = series.hr_bpm
    if not len(series.points):
        return ["empty HR series"], {}
    if not np.all(np.isfinite(hr)) or hr.min() < HR_MIN_BPM or hr.max() > HR_MAX_BPM:
        problems.append(f"HR outside [{HR_MIN_BPM}, {HR_MAX_BPM}] bpm")
    if np.any(np.diff(series.times) <= 0):
        problems.append("series times not increasing")
    if report.hrr_60 != report.initial_hr - report.hr_at_60s:
        problems.append("hrr_60 != initial_hr - hr_at_60s")
    if report.n_points != len(series.points):
        problems.append("report n_points does not match the series")
    bad = {w.status for w in series.window_results.values()} - WINDOW_STATUSES
    if bad:
        problems.append(f"unknown window status {sorted(bad)}")
    acc = hr_accuracy(series, report, truth)
    if report.mean_abs_error is None or not math.isclose(
        report.mean_abs_error, acc["mae_bpm"], rel_tol=1e-12, abs_tol=1e-12
    ):
        problems.append(
            f"report MAE {report.mean_abs_error} != recomputed {acc['mae_bpm']}"
        )
    return problems, acc


class EstimateWorkload:
    """Read a trace CSV, estimate HR, write HR series, report and mode dump.

    The same work as ``hrrkit estimate trace.csv -o out --dump-modes``.
    """

    def __init__(self, name: str, subject: Subject, snr_db: float, seed_base: int):
        self.name = name
        self.subject = subject
        self.snr_db = snr_db
        self.panel_seeds = [seed_base + j for j in range(PANEL_SIZE)]
        self.signal_s_per_op = DURATION
        self.required_spans = [
            "io.read_trace", "pipeline.estimate_trace", "preprocess.bandpass",
            "preprocess.difference", "hr_estimate.run_composite_windows",
            "pipeline.window_stage", "vmd.select_alpha", "vmd.vmd_decompose",
            "vmd.mode_correlation_max", "vmd.energy_loss",
            "mode_select.classify_modes", "hr_estimate.condition_heartbeat",
            "hr_estimate.detect_peaks", "hr_estimate.build_report",
            "io.write_hr_series", "io.write_report", "io.write_mode_dump",
        ]

    def setup(self, workdir: Path) -> None:
        """Write each panel member's trace CSV, as ``hrrkit synth`` would."""
        noise = noise_std_for(self.subject, self.snr_db)
        self.paths, self.written = [], []
        for j, seed in enumerate(self.panel_seeds):
            tr = signal_model.synthesize_trace(
                self.subject.resp, self.subject.heart, noise, SAMPLE_RATE, DURATION, seed
            )
            path = workdir / f"trace_{j}.csv"
            hio.write_trace(tr, path)
            self.paths.append(path)
            self.written.append(tr.samples)

    def run(self, member: int, outdir: Path):
        trace = hio.read_trace(self.paths[member])
        series, report = pipeline.estimate_trace(trace)
        hio.write_hr_series(series, outdir / "hr.csv")
        hio.write_report(report, outdir / "report.txt")
        hio.write_mode_dump(series, outdir / "modes.csv")
        return trace, series, report

    def check(self, member: int, result, outdir: Path) -> Checked:
        trace, series, report = result
        problems, acc = check_estimate(series, report, self.subject.heart.rate_trajectory)
        files = [outdir / n for n in ("hr.csv", "report.txt", "report.json", "modes.csv")]
        blobs = [f.read_bytes() for f in files]
        if blobs[0].count(b"\n") != len(series.points) + 1:
            problems.append("hr.csv row count does not match the series")
        if json.loads(blobs[2]) != report.as_dict():
            problems.append("report.json does not match the report")
        n_modes = sum(len(w.mode_table) for w in series.window_results.values())
        if blobs[3].count(b"\n") != n_modes + 1:
            problems.append("modes.csv row count does not match the mode tables")
        # The pipeline's displacement input is the trace read back from CSV.
        diff = trace.samples - self.written[member]
        acc["disp_rmse_um"] = float(np.sqrt(np.mean(diff**2))) * 1000.0
        return Checked(problems, _digest(*blobs), acc)

    def accuracy(self, measures: dict) -> tuple[list, dict]:
        """Accuracy over the panel, from each member's first execution."""
        rows = [measures[j] for j in sorted(measures)]
        return [], {
            "mae_bpm": float(np.mean([r["mae_bpm"] for r in rows])),
            "max_err_bpm": max(r["max_err_bpm"] for r in rows),
            "hrr60_err_bpm": float(np.mean([r["hrr60_err_bpm"] for r in rows])),
            "disp_rmse_um": float(np.mean([r["disp_rmse_um"] for r in rows])),
        }


class RadarWorkload:
    """Two subjects through the FMCW front end and the file formats; no VMD."""

    def __init__(self, name: str, subjects: tuple, snr_db: float, noise_floor: float,
                 seed_base: int):
        self.name = name
        self.subjects = subjects
        self.snr_db = snr_db
        self.noise_floor = noise_floor
        self.panel_seeds = [seed_base + j for j in range(PANEL_SIZE)]
        self.signal_s_per_op = DURATION * len(subjects)
        self.config = radar.RadarConfig(frame_rate=SAMPLE_RATE)
        self.required_spans = [
            "signal_model.synthesize_trace", "io.write_trace", "io.read_trace",
            "radar.simulate_frames", "io.write_cube", "io.read_cube",
            "radar.track_target", "radar.phase_to_displacement",
        ]

    def setup(self, workdir: Path) -> None:
        self.noise = [noise_std_for(s, self.snr_db) for s in self.subjects]
        self.hr_input = None

    def run(self, member: int, outdir: Path):
        seed = self.panel_seeds[member]
        traces = [
            signal_model.synthesize_trace(
                s.resp, s.heart, self.noise[k], SAMPLE_RATE, DURATION, seed + 1000 * k
            )
            for k, s in enumerate(self.subjects)
        ]
        hio.write_trace(traces[0], outdir / "trace.csv")
        back = hio.read_trace(outdir / "trace.csv")
        scene = radar.TargetScene(
            tuple(radar.Target(s.base_range, tr) for s, tr in zip(self.subjects, traces)),
            noise_floor=self.noise_floor,
        )
        cube = radar.simulate_frames(self.config, scene, DURATION, seed)
        hio.write_cube(cube, outdir / "cube.bin")
        cube_back = hio.read_cube(outdir / "cube.bin")
        seqs, recs = [], []
        for s in self.subjects:
            seq = radar.track_target(cube_back, s.base_range)
            seqs.append(seq)
            recs.append(radar.phase_to_displacement(seq, self.config.wavelength))
        return traces, back, cube, cube_back, seqs, recs

    def check(self, member: int, result, outdir: Path) -> Checked:
        traces, back, cube, cube_back, seqs, recs = result
        problems = []
        expected = np.array([float(f"{v:.12e}") for v in traces[0].samples])
        if not np.array_equal(back.samples, expected):
            problems.append("trace CSV round trip not exact at its written precision")
        if not np.array_equal(cube_back.iq, cube.iq.astype(np.complex64).astype(complex)):
            problems.append("cube round trip not exact at float32")
        sq_err, n = 0.0, 0
        for k, (tr, rec) in enumerate(zip(traces, recs)):
            truth = tr.samples - tr.samples[0]
            err = rec.samples - truth
            rel = math.sqrt(np.mean(err**2) / np.mean(truth**2))
            if rel > RADAR_REL_RMS_LIMIT:
                problems.append(f"target {k}: displacement relative RMS {rel:.4f}")
            sq_err += float(np.sum(err**2))
            n += len(err)
        if member == 0 and self.hr_input is None:
            self.hr_input = (traces[0], recs[0])
        digest = _digest(*(r.samples.tobytes() for r in recs),
                         *(s.source_bins.tobytes() for s in seqs))
        acc = {
            "disp_rmse_um": math.sqrt(sq_err / n) * 1000.0,
            "cube_mb": (outdir / "cube.bin").stat().st_size / 1e6,
        }
        return Checked(problems, digest, acc)

    def accuracy(self, measures: dict) -> tuple[list, dict]:
        """Displacement error over the panel, and the HR accuracy downstream.

        The HR figures come from estimating panel member 0's first target as
        recovered by the radar, once per run and outside the timed loop: they
        guard what the front end hands on, not the front end's speed.
        """
        truth_trace, rec = self.hr_input
        rec.ground_truth = truth_trace.ground_truth
        series, report = pipeline.estimate_trace(rec)
        problems, acc = check_estimate(series, report, self.subjects[0].heart.rate_trajectory)
        acc["disp_rmse_um"] = float(np.mean([measures[j]["disp_rmse_um"] for j in sorted(measures)]))
        return problems, acc


_RESP_FULL = RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04))
_RECOVERY = HeartbeatModel(ExponentialRecovery(152.0, 120.0, 30.0), 0.15, WaveformShape.SINUSOID)

# Scenes and panel seeds follow the evaluation suite's recovery_snr15,
# harmonic_coincidence and radar_two_targets scenarios (hrrkit eval at its
# default --seed-base 100), extended from three repetitions to four.
WORKLOADS = {
    "recovery_estimate": lambda: EstimateWorkload(
        "recovery_estimate", Subject(_RESP_FULL, _RECOVERY), 15.0, 120
    ),
    "coincidence_estimate": lambda: EstimateWorkload(
        "coincidence_estimate",
        Subject(
            RespirationModel(0.5, (1.0, 0.25, 0.1)),
            HeartbeatModel(LinearRamp(100.0, 55.0, 60.0), 0.15, WaveformShape.SINUSOID),
        ),
        20.0,
        130,
    ),
    "radar_frontend": lambda: RadarWorkload(
        "radar_frontend",
        (
            Subject(_RESP_FULL, _RECOVERY, base_range=1.0),
            Subject(
                RespirationModel(0.28, (0.9, 0.2)),
                HeartbeatModel(ExponentialRecovery(170.0, 130.0, 25.0), 0.2,
                               WaveformShape.SINUSOID),
                base_range=2.2,
            ),
        ),
        25.0,
        1e-4,
        150,
    ),
}


def make(name: str, workdir: Path):
    wl = WORKLOADS[name]()
    wl.setup(workdir)
    return wl


def order(seed: int) -> list[int]:
    """Panel members in the order a run with ``seed`` visits them."""
    return [(seed + i) % PANEL_SIZE for i in range(PANEL_SIZE)]


def make_tracer():
    """A tracer over every public function an operation reaches.

    Each function is rebound where its caller looks it up: ``select_alpha``
    calls ``vmd_decompose`` and the gate diagnostics through the ``vmd``
    module, ``estimate_trace`` and its window stage call the rest through the
    ``pipeline`` module, and the workloads call ``io``, ``radar`` and
    ``signal_model`` through theirs. Spans are named after the module that
    defines the function, which is the layer they are charged to.
    """
    from hrrkit import vmd
    from spans import Tracer

    def window_attrs(res):
        return {"status": res.status,
                "coincident": any(row["coincident"] for row in res.mode_table)}

    plan = [
        (vmd, "vmd_decompose", lambda ms: {"n_iters": ms.n_iters, "converged": bool(ms.converged)}),
        (vmd, "mode_correlation_max", None),
        (vmd, "energy_loss", None),
        (pipeline, "estimate_trace", None),
        (pipeline, "bandpass", None),
        (pipeline, "difference", None),
        (pipeline, "run_composite_windows",
         lambda s: {"points": len(s.points),
                    "carry": sum(p.flag == FLAG_CARRY for p in s.points)}),
        (pipeline, "select_alpha", None),
        (pipeline, "mode_correlation_max", None),
        (pipeline, "energy_loss", None),
        (pipeline, "classify_modes", None),
        (pipeline, "condition_heartbeat", None),
        (pipeline, "detect_peaks", None),
        (pipeline, "build_report", None),
        (hio, "read_trace", None),
        (hio, "write_trace", None),
        (hio, "read_cube", None),
        (hio, "write_cube", None),
        (hio, "write_hr_series", None),
        (hio, "write_report", None),
        (hio, "write_mode_dump", None),
        (radar, "simulate_frames", lambda c: {"frames": c.n_frames}),
        (radar, "track_target",
         lambda q: {"frames": len(q.source_bins),
                    "bin_switches": int(np.count_nonzero(np.diff(q.source_bins)))}),
        (radar, "phase_to_displacement", None),
        (signal_model, "synthesize_trace", None),
    ]
    targets = []
    for module, attr, attrs_fn in plan:
        fn = getattr(module, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        targets.append((module, attr, f"{layer}.{fn.__name__}", attrs_fn))
    factories = [(pipeline, "make_window_stage", "pipeline.window_stage", window_attrs)]
    return Tracer(targets, factories)
