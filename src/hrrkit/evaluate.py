"""Closed-loop evaluation against synthetic ground truth.

A scenario bundles signal/scene parameters with a repetition count and a
seed base; running it synthesizes each repetition, pushes it through the
full pipeline (optionally via the radar front end), and scores it against
the known trajectory: the mean absolute HR error, the max error (the
largest |HR - truth| over the series) and the hrr60 error (|reported
hrr_60 - true HRR|, the true HRR being truth at the first non-carried
point minus truth at 60 s). Failures are recorded as failed cells, never
silently dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import PipelineConfig
from .hr_estimate import FLAG_CARRY, REPORT_TIME_S, HrrReport, HrSeries
from .io import write_hr_series, write_mode_dump, write_report, write_trace
from .pipeline import estimate_trace
from .radar import RadarConfig, Target, TargetScene, phase_to_displacement, simulate_frames, track_target
from .signal_model import (
    ChestMotionTrace,
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    noise_std_for_snr,
    synthesize_trace,
)


@dataclass(frozen=True)
class Subject:
    """One person's respiration/heartbeat models plus radar placement."""

    resp: Optional[RespirationModel]
    heart: HeartbeatModel
    base_range: float = 1.0


# Every scenario is synthesized at the same length and rate; radar scenes
# share one receiver noise floor.
DURATION = 66.0
SAMPLE_RATE = 100.0
RADAR_NOISE_FLOOR = 1e-4

# The recovery scene: a 0.35 Hz breather with three harmonics, and a heart
# rate recovering from 152 to 120 bpm with a 30 s time constant.
RECOVERY_RESP = RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04))
RECOVERY_HEART = HeartbeatModel(
    ExponentialRecovery(152.0, 120.0, 30.0), 0.15, WaveformShape.SINUSOID
)

# A scenario runs at least this many repetitions, the suite's default. The
# suite's scenarios take their seeds from SEED_BASE up.
MIN_REPETITIONS = 3
SEED_BASE = 100


@dataclass(frozen=True)
class Scenario:
    name: str
    subjects: tuple[Subject, ...]
    snr_db: Optional[float] = None      # displacement SNR; None is noise-free
    repetitions: int = MIN_REPETITIONS
    seed_base: int = 0
    use_radar: bool = False

    def __post_init__(self):
        if self.repetitions < MIN_REPETITIONS:
            raise ValueError(
                f"repetitions must be >= {MIN_REPETITIONS}, got {self.repetitions}"
            )
        if not self.subjects:
            raise ValueError("scenario needs at least one subject")


@dataclass
class ScoreRow:
    scenario: str
    rep: int
    seed: int
    delta_hr_bpm: float     # mean absolute error; nan when failed
    status: str             # ok | failed:<error>
    max_err_bpm: float = math.nan
    hrr60_err_bpm: float = math.nan


@dataclass
class ScoreTable:
    rows: list[ScoreRow] = field(default_factory=list)

    def scenario_names(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.scenario not in seen:
                seen.append(row.scenario)
        return seen

    def values(self, scenario: str, metric: str = "delta_hr_bpm") -> np.ndarray:
        return np.array(
            [getattr(r, metric) for r in self.rows if r.scenario == scenario and r.status == "ok"]
        )

    def stats(self, scenario: str) -> tuple[float, float, int]:
        """(mean, sample std, n_ok) of the per-repetition mean errors."""
        v = self.values(scenario)
        if len(v) == 0:
            return math.nan, math.nan, 0
        std = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
        return float(np.mean(v)), std, len(v)

    def to_csv(self) -> str:
        lines = ["scenario,rep,seed,delta_hr_bpm,max_err_bpm,hrr60_err_bpm,status"]
        for r in self.rows:
            vals = ",".join(_cell(v) for v in (r.delta_hr_bpm, r.max_err_bpm, r.hrr60_err_bpm))
            lines.append(f"{r.scenario},{r.rep},{r.seed},{vals},{r.status}")
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        """Per scenario: the MAE's mean and std, the worst max error and the
        mean hrr60 error over the repetitions that ran."""
        lines = ["scenario,n_ok,mean_delta_hr_bpm,std_delta_hr_bpm,"
                 "max_err_bpm,mean_hrr60_err_bpm"]
        for name in self.scenario_names():
            mean, std, n = self.stats(name)
            max_err = self.values(name, "max_err_bpm")
            hrr60_err = self.values(name, "hrr60_err_bpm")
            worst = float(np.max(max_err)) if n else math.nan
            hrr60 = float(np.mean(hrr60_err)) if n else math.nan
            lines.append(f"{name},{n},{mean:.6f},{std:.6f},{worst:.6f},{hrr60:.6f}")
        return "\n".join(lines) + "\n"


def _cell(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.6f}"


def score_estimate(series: HrSeries, report: HrrReport, truth) -> tuple[float, float]:
    """(max error, hrr60 error) of one estimate against its true HR trajectory."""
    err = np.abs(series.hr_bpm - np.asarray(truth(series.times), dtype=float))
    t_first = next(p.time for p in series.points if p.flag != FLAG_CARRY)
    true_hrr = float(truth(t_first) - truth(REPORT_TIME_S))
    return float(np.max(err)), abs(report.hrr_60 - true_hrr)


def _synth_subject(scenario: Scenario, subject: Subject, seed: int) -> ChestMotionTrace:
    """Synthesize one subject, with noise at the scenario's displacement SNR if set."""
    noise_std = 0.0
    if scenario.snr_db is not None:
        noise_std = noise_std_for_snr(
            subject.resp, subject.heart, scenario.snr_db, SAMPLE_RATE, DURATION
        )
    return synthesize_trace(subject.resp, subject.heart, noise_std, SAMPLE_RATE, DURATION, seed)


def run_scenario(
    scenario: Scenario,
    cfg: Optional[PipelineConfig] = None,
    archive_dir: Optional[str | Path] = None,
) -> list[ScoreRow]:
    """Run every repetition; archive traces, HR series and reports when asked.

    The per-repetition scores are the mean absolute HR error over the series
    and the hrr60 error, each averaged across subjects in multi-target
    scenes, and the max error, the largest of the subjects'.
    """
    cfg = cfg or PipelineConfig()
    rows: list[ScoreRow] = []
    radar_cfg = RadarConfig(frame_rate=SAMPLE_RATE)
    for rep in range(scenario.repetitions):
        seed = scenario.seed_base + rep
        rep_dir: Optional[Path] = None
        if archive_dir is not None:
            rep_dir = Path(archive_dir) / scenario.name / f"rep_{rep}"
            rep_dir.mkdir(parents=True, exist_ok=True)
        try:
            traces = [
                _synth_subject(scenario, subj, seed + 1000 * si)
                for si, subj in enumerate(scenario.subjects)
            ]
            if scenario.use_radar:
                scene = TargetScene(
                    tuple(
                        Target(subj.base_range, tr)
                        for subj, tr in zip(scenario.subjects, traces)
                    ),
                    noise_floor=RADAR_NOISE_FLOOR,
                )
                cube = simulate_frames(radar_cfg, scene, DURATION, seed)
                recovered = []
                for subj, tr in zip(scenario.subjects, traces):
                    seq = track_target(cube, subj.base_range)
                    rec = phase_to_displacement(seq, radar_cfg.wavelength)
                    rec.ground_truth = tr.ground_truth
                    recovered.append(rec)
                traces = recovered
            errors, max_errs, hrr60_errs = [], [], []
            for si, tr in enumerate(traces):
                series, report = estimate_trace(tr, cfg)
                errors.append(report.mean_abs_error)
                max_err, hrr60_err = score_estimate(
                    series, report, tr.ground_truth.heartbeat.rate_trajectory
                )
                max_errs.append(max_err)
                hrr60_errs.append(hrr60_err)
                if rep_dir is not None:
                    suffix = f"_{si}" if len(traces) > 1 else ""
                    write_trace(tr, rep_dir / f"trace{suffix}.csv")
                    write_hr_series(series, rep_dir / f"hr{suffix}.csv")
                    write_report(report, rep_dir / f"report{suffix}.txt")
                    write_mode_dump(series, rep_dir / f"modes{suffix}.csv")
            rows.append(
                ScoreRow(scenario.name, rep, seed, float(np.mean(errors)), "ok",
                         max(max_errs), float(np.mean(hrr60_errs)))
            )
        except Exception as exc:  # recorded, not silent
            rows.append(
                ScoreRow(scenario.name, rep, seed, math.nan, f"failed:{type(exc).__name__}")
            )
            if rep_dir is not None:
                (rep_dir / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n")
    return rows


def sweep(
    scenarios: list[Scenario],
    cfg: Optional[PipelineConfig] = None,
    archive_dir: Optional[str | Path] = None,
) -> ScoreTable:
    """Run scenarios in order and concatenate their rows."""
    table = ScoreTable()
    for scenario in scenarios:
        table.rows.extend(run_scenario(scenario, cfg=cfg, archive_dir=archive_dir))
    return table


def default_scenarios(
    repetitions: int = MIN_REPETITIONS, seed_base: int = SEED_BASE
) -> list[Scenario]:
    """The stock desk-scale suite: recovery, floors, coincidence, radar."""
    resp_plain = RespirationModel(0.3, (1.0,))
    constant = HeartbeatModel(ConstantRate(130.0), 0.15, WaveformShape.SINUSOID)
    # Heart rate sliding through 3x and 2x the respiratory fundamental
    # (0.5 Hz -> crossings at 90 and 60 bpm).
    resp_coin = RespirationModel(0.5, (1.0, 0.25, 0.1))
    coincidence = HeartbeatModel(LinearRamp(100.0, 55.0, 60.0), 0.15, WaveformShape.SINUSOID)
    return [
        Scenario(
            "clean_constant",
            (Subject(RECOVERY_RESP, constant),),
            repetitions=repetitions,
            seed_base=seed_base,
        ),
        Scenario(
            "zero_noise_no_harmonics",
            (Subject(resp_plain, constant),),
            repetitions=repetitions,
            seed_base=seed_base + 10,
        ),
        Scenario(
            "recovery_snr15",
            (Subject(RECOVERY_RESP, RECOVERY_HEART),),
            snr_db=15.0,
            repetitions=repetitions,
            seed_base=seed_base + 20,
        ),
        Scenario(
            "harmonic_coincidence",
            (Subject(resp_coin, coincidence),),
            snr_db=20.0,
            repetitions=repetitions,
            seed_base=seed_base + 30,
        ),
        Scenario(
            "radar_round_trip",
            (Subject(RECOVERY_RESP, RECOVERY_HEART),),
            snr_db=25.0,
            use_radar=True,
            repetitions=repetitions,
            seed_base=seed_base + 40,
        ),
        Scenario(
            "radar_two_targets",
            (
                Subject(RECOVERY_RESP, RECOVERY_HEART, base_range=1.0),
                Subject(
                    RespirationModel(0.28, (0.9, 0.2)),
                    HeartbeatModel(
                        ExponentialRecovery(170.0, 130.0, 25.0), 0.2, WaveformShape.SINUSOID
                    ),
                    base_range=2.2,
                ),
            ),
            snr_db=25.0,
            use_radar=True,
            repetitions=repetitions,
            seed_base=seed_base + 50,
        ),
    ]
