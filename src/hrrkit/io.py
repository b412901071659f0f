"""File formats: trace CSV with metadata sidecar, radar-cube binary, HR
series CSV, reports, and diagnostic mode dumps.

All writers use fixed numeric formats so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InputError
from .hr_estimate import HrrReport, HrSeries
from .radar import _FRAME_BLOCK, RadarCube
from .signal_model import (
    MIN_SAMPLE_RATE_HZ,
    ChestMotionTrace,
    ConstantRate,
    ExponentialRecovery,
    GroundTruth,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
)

TRACE_HEADER = "time_s,displacement_mm"
HR_HEADER = "time_s,hr_bpm,l_b_s,flag"
MODES_HEADER = (
    "window_start_s,mode_idx,omega_hz,energy_share,label,peak_freq_hz,energy,merged_from"
)
_CUBE_MAGIC = "hrrkit-cube v1"
# The characters of the trace rows that read_trace parses in one pass.
_PLAIN_ROW_CHARS = b"0123456789+-.eE,\n"


def meta_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta")


# Sidecar name of each trajectory class; its arguments follow the field order.
_TRAJECTORIES = {
    "exponential_recovery": ExponentialRecovery,
    "constant": ConstantRate,
    "linear": LinearRamp,
}


def _trajectory_str(traj) -> str:
    for name, cls in _TRAJECTORIES.items():
        if isinstance(traj, cls):
            args = ",".join(str(getattr(traj, f.name)) for f in fields(cls))
            return f"{name}({args})"
    return "custom"


def _parse_trajectory(text: str):
    name, _, args = text.partition("(")
    cls = _TRAJECTORIES.get(name)
    if cls is None:
        return None
    return cls(*(float(v) for v in args.rstrip(")").split(",")))


def write_trace(trace: ChestMotionTrace, path: str | Path) -> None:
    """Trace CSV plus a key=value sidecar recording models, seed and rate."""
    path = Path(path)
    n = len(trace.samples)
    rows = np.column_stack((np.arange(n) / trace.sample_rate, trace.samples))
    path.write_text(f"{TRACE_HEADER}\n" + ("%.6f,%.12e\n" * n) % tuple(rows.ravel().tolist()))

    meta = {
        "sample_rate": trace.sample_rate,
        "duration": trace.duration,
        "unit": "mm",
    }
    gt = trace.ground_truth
    if gt is not None:
        meta["seed"] = gt.seed
        meta["noise_std"] = gt.noise_std
        if gt.respiration is not None:
            meta["resp_fundamental_freq"] = gt.respiration.fundamental_freq
            meta["resp_harmonic_amplitudes"] = ",".join(
                repr(a) for a in gt.respiration.harmonic_amplitudes
            )
            meta["resp_phase_offset"] = gt.respiration.phase_offset
        if gt.heartbeat is not None:
            meta["heart_amplitude"] = gt.heartbeat.amplitude
            meta["heart_waveform"] = gt.heartbeat.waveform_shape.value
            meta["heart_trajectory"] = _trajectory_str(gt.heartbeat.rate_trajectory)
    meta_path(path).write_text(
        "".join(f"{k}={v}\n" for k, v in meta.items())
    )


def _parse_ground_truth(meta: dict[str, str]) -> Optional[GroundTruth]:
    if "seed" not in meta:
        return None
    resp = None
    if "resp_fundamental_freq" in meta:
        resp = RespirationModel(
            fundamental_freq=float(meta["resp_fundamental_freq"]),
            harmonic_amplitudes=tuple(
                float(a) for a in meta["resp_harmonic_amplitudes"].split(",")
            ),
            phase_offset=float(meta.get("resp_phase_offset", 0.0)),
        )
    heart = None
    if "heart_amplitude" in meta:
        traj = _parse_trajectory(meta.get("heart_trajectory", "custom"))
        if traj is not None:
            heart = HeartbeatModel(
                rate_trajectory=traj,
                amplitude=float(meta["heart_amplitude"]),
                waveform_shape=WaveformShape(meta["heart_waveform"]),
            )
    return GroundTruth(
        respiration=resp,
        heartbeat=heart,
        noise_std=float(meta.get("noise_std", 0.0)),
        seed=int(meta["seed"]),
    )


def read_trace(path: str | Path) -> ChestMotionTrace:
    """Read a trace CSV; the sidecar, when present, restores rate and truth.

    Every defect of the files raises InputError naming the file.
    """
    path = Path(path)
    lines = path.read_text(errors="replace").splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise InputError(f"{path}:1: expected header {TRACE_HEADER!r}")
    times, values, linenos = _plain_rows(lines[1:]) or _checked_rows(path, lines[1:])
    if len(values) < 2:
        raise InputError(f"{path}: needs at least 2 samples")

    meta: dict[str, str] = {}
    mp = meta_path(path)
    if mp.exists():
        for line in mp.read_text(errors="replace").splitlines():
            if "=" in line:
                k, _, v = line.partition("=")
                meta[k.strip()] = v.strip()
    if meta.get("unit", "mm") != "mm":
        raise InputError(
            f"{mp}: expected a displacement trace in mm, got unit {meta['unit']!r}"
        )
    if "sample_rate" not in meta and times[-1] <= times[0]:
        raise InputError(f"{path}: timestamps do not increase")
    try:
        if "sample_rate" in meta:
            sample_rate = float(meta["sample_rate"])
        else:
            sample_rate = (len(times) - 1) / (times[-1] - times[0])
        ground_truth = _parse_ground_truth(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{mp}: bad sidecar entry: {exc}") from exc
    try:
        trace = ChestMotionTrace(np.array(values), sample_rate, ground_truth)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    # A dropped or jittered row would silently shift every later sample.
    grid = times[0] + np.arange(len(times)) / sample_rate
    off = np.flatnonzero(np.abs(np.array(times) - grid) > 0.01 / sample_rate)
    if len(off):
        i = off[0]
        raise InputError(
            f"{path}:{linenos[i]}: time {times[i]!r} s is off the uniform "
            f"{sample_rate:g} Hz grid (expected {grid[i]:.6f} s)"
        )
    return trace


def _checked_rows(path: Path, body: list[str]) -> tuple[list, list, list]:
    """Times, values and line numbers of the rows below the header, one
    line at a time; the first row that is not two finite numbers raises."""
    times, values, linenos = [], [], []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        try:
            t_str, v_str = line.split(",")
            times.append(float(t_str))
            values.append(float(v_str))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed row {line!r}") from exc
        if not (math.isfinite(times[-1]) and math.isfinite(values[-1])):
            raise InputError(f"{path}:{lineno}: non-finite value in row {line!r}")
        linenos.append(lineno)
    return times, values, linenos


def _plain_rows(body: list[str]) -> Optional[tuple[list, list, list]]:
    """``_checked_rows`` in one pass, for rows as ``write_trace`` writes them.

    It takes only lines made of digits, signs, points, exponents and commas,
    so no whitespace, comment or quote can reach the parser. ``np.loadtxt``
    then parses each field with the routine that ``float`` uses, skips the
    empty lines and refuses a row whose field count differs from the one
    before it. Anything else, a row that is not two fields or a value that
    is not finite, returns None, and ``_checked_rows`` names the line.
    """
    text = "\n".join(body)
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_ROW_CHARS):
        return None
    linenos = [lineno for lineno, line in enumerate(body, start=2) if line]
    if not linenos:
        return None
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 2 or not np.isfinite(rows).all():
        return None
    return rows[:, 0].tolist(), rows[:, 1].tolist(), linenos


def write_cube(cube: RadarCube, path: str | Path) -> None:
    """Binary cube: text header, then little-endian float32 interleaved I/Q.

    The samples are cast and written ``_FRAME_BLOCK`` frames at a time.
    """
    path = Path(path)
    header = (
        f"{_CUBE_MAGIC}\n"
        f"frames={cube.n_frames}\n"
        f"samples_per_chirp={cube.iq.shape[1]}\n"
        f"frame_rate={cube.frame_rate!r}\n"
        f"bin_size={cube.bin_size!r}\n"
        f"end-header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for f0 in range(0, cube.n_frames, _FRAME_BLOCK):
            fh.write(np.ascontiguousarray(cube.iq[f0:f0 + _FRAME_BLOCK], dtype="<c8"))


def read_cube(path: str | Path) -> RadarCube:
    """Read a cube file; every defect raises InputError naming the file.

    Besides a well-formed header and payload, the radar stage needs at
    least one frame of at least two samples, a finite frame rate of at
    least MIN_SAMPLE_RATE_HZ, a finite positive bin size and finite samples.

    The payload's length is checked against the header before anything of
    the cube's size is allocated. The cube is complex64, the file's own
    precision, at half the memory of complex128: the samples are read
    ``_FRAME_BLOCK`` frames at a time straight into its rows, and each block
    is checked for non-finite values as it lands.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").strip()
        if magic != _CUBE_MAGIC:
            raise InputError(f"{path}: not a radar cube file (got {magic!r})")
        fields = {}
        while True:
            line = fh.readline().decode("ascii", errors="replace").strip()
            if line == "end-header":
                break
            if not line or "=" not in line:
                raise InputError(f"{path}: malformed cube header line {line!r}")
            k, _, v = line.partition("=")
            fields[k] = v
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            frames = int(fields["frames"])
            samples = int(fields["samples_per_chirp"])
            frame_rate = float(fields["frame_rate"])
            bin_size = float(fields["bin_size"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"{path}: bad or missing cube header field {exc}") from exc
        if frames < 1 or samples < 2:
            raise InputError(
                f"{path}: needs frames >= 1 and samples_per_chirp >= 2, got "
                f"{frames} x {samples}"
            )
        if not MIN_SAMPLE_RATE_HZ <= frame_rate < math.inf:
            raise InputError(
                f"{path}: frame_rate must be finite and >= {MIN_SAMPLE_RATE_HZ} Hz, "
                f"got {frame_rate}"
            )
        if not 0 < bin_size < math.inf:
            raise InputError(f"{path}: bin_size must be finite and > 0, got {bin_size}")
        if payload_bytes != frames * samples * 8:
            raise InputError(
                f"{path}: payload holds {payload_bytes / 4:.15g} floats, expected "
                f"{frames * samples * 2}"
            )
        iq = np.empty((frames, samples), dtype="<c8")
        for f0 in range(0, frames, _FRAME_BLOCK):
            block = iq[f0:f0 + _FRAME_BLOCK]
            if fh.readinto(block) != block.nbytes:
                raise InputError(f"{path}: payload ended early, at frame {f0}")
            finite = np.isfinite(block)
            if not finite.all():
                frame = f0 + int(np.argmin(finite)) // samples
                raise InputError(f"{path}: frame {frame} holds a non-finite I/Q sample")
    return RadarCube(iq=iq, frame_rate=frame_rate, bin_size=bin_size)


def write_hr_series(series: HrSeries, path: str | Path) -> None:
    lines = [HR_HEADER]
    for p in series.points:
        lb = "" if np.isnan(p.l_b) else f"{p.l_b:.4f}"
        lines.append(f"{p.time:.3f},{p.hr_bpm:.4f},{lb},{p.flag}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(report: HrrReport, path: str | Path) -> None:
    """Report as key=value text plus a .json twin."""
    path = Path(path)
    d = report.as_dict()
    path.write_text("".join(f"{k}={v}\n" for k, v in sorted(d.items())))
    path.with_suffix(".json").write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")


def write_mode_dump(series: HrSeries, path: str | Path) -> None:
    """Per-window mode table: center frequency, energy share, and label.

    ``merged_from`` lists the modes of the window's unmerged decomposition
    that a row sums, joined by "+" (for example ``1+4``).
    """
    lines = [MODES_HEADER]
    for k in sorted(series.window_results):
        for row in series.window_results[k].mode_table:
            lines.append(
                f"{row['window_start_s']:.3f},{row['mode_idx']},"
                f"{row['omega_hz']:.4f},{row['energy_share']:.6e},"
                f"{row['label']},{row['peak_freq_hz']:.4f},{row['energy']:.6e},"
                f"{'+'.join(map(str, row['merged_from']))}"
            )
    Path(path).write_text("\n".join(lines) + "\n")
