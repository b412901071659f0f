"""Command-line entry point wiring all stages.

Subcommands: synth (make a ground-truth trace), simulate (radar front end),
estimate (trace or cube to HR series + recovery report, optionally the
per-window decomposition table), eval (scenario sweep).

Exit codes: 0 ok, 1 usage, 2 input error, 3 pipeline failure, 4 degraded
quality. Only InputError and a missing file are input errors; any other
ValueError is a pipeline failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .config import PipelineConfig, parse_config
from .errors import ConfigError, DegradedQualityError, InputError
from .evaluate import default_scenarios, sweep
from .hr_estimate import REPORT_TIME_S, output_times, reaches_report_time
from .io import (
    read_cube,
    read_trace,
    write_cube,
    write_hr_series,
    write_mode_dump,
    write_report,
    write_trace,
)
from .pipeline import estimate_trace
from .radar import RadarConfig, Target, TargetScene, phase_to_displacement, simulate_frames, track_target
from .signal_model import (
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    noise_std_for_snr,
    synthesize_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_DEGRADED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hrrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hrrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="synthesize a ground-truth trace")
    p.add_argument("-o", "--output", required=True, help="trace CSV path")
    p.add_argument("--duration", type=float, default=66.0)
    p.add_argument("--sample-rate", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resp-freq", type=float, default=0.35, help="Hz")
    p.add_argument(
        "--resp-amps",
        default="1.0,0.25,0.1,0.04",
        help="comma list, fundamental first (mm)",
    )
    p.add_argument("--resp-phase", type=float, default=0.0)
    p.add_argument("--no-resp", action="store_true")
    p.add_argument("--hr-initial", type=float, default=152.0)
    p.add_argument("--hr-final", type=float, default=120.0)
    p.add_argument("--hr-tau", type=float, default=30.0)
    p.add_argument("--hr-const", type=float, help="overrides the recovery curve")
    p.add_argument("--hr-ramp", help="start,end,t_end linear trajectory")
    p.add_argument("--heart-amp", type=float, default=0.15, help="mm")
    p.add_argument("--heart-waveform", choices=["sinusoid", "pulse"], default="sinusoid")
    p.add_argument("--no-heart", action="store_true")
    p.add_argument("--noise-std", type=float, default=0.0, help="mm")
    p.add_argument("--snr-db", type=float, help="displacement SNR; overrides --noise-std")

    p = sub.add_parser("simulate", help="radar front end over a trace")
    p.add_argument("trace", help="input trace CSV")
    p.add_argument("-o", "--output", required=True, help="cube binary path")
    p.add_argument("--base-range", type=float, default=1.0, help="m")
    p.add_argument("--drift", type=float, default=0.0, help="m/s")
    p.add_argument("--noise-floor", type=float, default=0.0, help="relative power")
    p.add_argument("--carrier", type=float, default=79e9)
    p.add_argument("--bandwidth", type=float, default=4e9)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("estimate", help="HR series + recovery report")
    p.add_argument("input", help="trace CSV or radar cube binary")
    p.add_argument("-o", "--output-dir", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--expected-range", type=float, help="m, required for cube input")
    p.add_argument("--wavelength", type=float, default=RadarConfig().wavelength,
                   help="m, used for cube input")
    p.add_argument("--dump-modes", action="store_true",
                   help="also write the per-window decomposition table modes.csv")

    p = sub.add_parser("eval", help="run the scenario suite")
    p.add_argument("-o", "--output-dir", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed-base", type=int, default=100)
    p.add_argument(
        "--scenario", action="append", default=[],
        help="run only the named scenario(s); repeatable",
    )

    return parser


def _resolve_config(args) -> PipelineConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return parse_config(getattr(args, "config", None), overrides)


def _synth_models(args):
    """Respiration and heartbeat models parsed from the synth arguments."""
    resp = None
    if not args.no_resp:
        amps = tuple(float(a) for a in args.resp_amps.split(","))
        resp = RespirationModel(args.resp_freq, amps, args.resp_phase)
    heart = None
    if not args.no_heart:
        if args.hr_const is not None:
            traj = ConstantRate(args.hr_const)
        elif args.hr_ramp:
            start, end, t_end = (float(v) for v in args.hr_ramp.split(","))
            traj = LinearRamp(start, end, t_end)
        else:
            traj = ExponentialRecovery(args.hr_initial, args.hr_final, args.hr_tau)
        heart = HeartbeatModel(traj, args.heart_amp, WaveformShape(args.heart_waveform))
    return resp, heart


def _cmd_synth(args) -> int:
    try:
        resp, heart = _synth_models(args)
    except ValueError as exc:
        raise InputError(f"bad model argument: {exc}") from exc
    noise_std = args.noise_std
    if args.snr_db is not None:
        noise_std = noise_std_for_snr(resp, heart, args.snr_db, args.sample_rate, args.duration)
    trace = synthesize_trace(
        resp, heart, noise_std, args.sample_rate, args.duration, args.seed
    )
    write_trace(trace, args.output)
    print(f"wrote {args.output} ({trace.duration:.1f} s at {trace.sample_rate:.0f} Hz)")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    trace = read_trace(args.trace)
    try:
        config = RadarConfig(
            carrier_freq=args.carrier,
            bandwidth=args.bandwidth,
            frame_rate=trace.sample_rate,
        )
        scene = TargetScene(
            (Target(args.base_range, trace, drift=args.drift),),
            noise_floor=args.noise_floor,
        )
    except ValueError as exc:
        raise InputError(f"bad radar argument: {exc}") from exc
    cube = simulate_frames(config, scene, trace.duration, args.seed)
    write_cube(cube, args.output)
    print(f"wrote {args.output} ({cube.n_frames} frames x {cube.iq.shape[1]} samples)")
    return EXIT_OK


def _load_input_trace(args):
    path = Path(args.input)
    with open(path, "rb") as fh:
        head = fh.read(16)
    if head.startswith(b"hrrkit-cube"):
        cube = read_cube(path)
        if args.expected_range is None:
            raise ConfigError("cube input requires --expected-range")
        if not 0 < args.wavelength < math.inf:
            raise InputError(f"--wavelength must be finite and > 0, got {args.wavelength}")
        seq = track_target(cube, args.expected_range)
        return phase_to_displacement(seq, args.wavelength)
    return read_trace(path)


def _cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    trace = _load_input_trace(args)
    if trace.unit != "mm":
        raise InputError(f"estimate needs a displacement trace in mm, got {trace.unit!r}")
    wcfg = cfg.window_config()
    if trace.duration < wcfg.l_a:
        raise InputError(
            f"input lasts {trace.duration:.2f} s but the analysis window "
            f"needs at least {wcfg.l_a:.2f} s"
        )
    grid = output_times(trace.duration, wcfg.cadence)
    last = grid[-1] if len(grid) else 0.0
    if not reaches_report_time(last, wcfg.cadence):
        raise InputError(
            f"input lasts {trace.duration:.2f} s but the recovery report needs "
            f"HR up to {REPORT_TIME_S:g} s (last output at {last:.2f} s)"
        )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    series, report = estimate_trace(trace, cfg)
    write_hr_series(series, out / "hr.csv")
    write_report(report, out / "report.txt")
    (out / "config_echo.txt").write_text(cfg.echo())
    if args.dump_modes:
        write_mode_dump(series, out / "modes.csv")
    print(
        f"initial {report.initial_hr:.1f} bpm, at 60 s {report.hr_at_60s:.1f} bpm, "
        f"drop {report.hrr_60:.1f} bpm ({report.n_carry}/{report.n_points} carried)"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenarios = default_scenarios(repetitions=args.reps, seed_base=args.seed_base)
    if args.scenario:
        known = {s.name for s in scenarios}
        unknown = set(args.scenario) - known
        if unknown:
            raise ConfigError(
                f"unknown scenario(s) {sorted(unknown)}; available: {sorted(known)}"
            )
        scenarios = [s for s in scenarios if s.name in args.scenario]
    table = sweep(scenarios, cfg=cfg, archive_dir=out / "archive")
    (out / "scoretable.csv").write_text(table.to_csv())
    (out / "summary.csv").write_text(table.summary_csv())
    (out / "config_echo.txt").write_text(cfg.echo())
    print(table.summary_csv(), end="")
    failed = [r for r in table.rows if r.status != "ok"]
    if failed:
        print(f"{len(failed)} repetition(s) failed", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"hrrkit: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, FileNotFoundError) as exc:
        print(f"hrrkit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegradedQualityError as exc:
        print(f"hrrkit: degraded quality: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    except (ValueError, RuntimeError) as exc:
        print(f"hrrkit: pipeline failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
