"""Command-line entry point wiring all stages.

Subcommands: synth (make a ground-truth trace), simulate (radar front end),
estimate (trace or cube to HR series + recovery report, optionally the
per-window decomposition table), eval (scenario sweep).

Exit codes: 0 ok, 1 usage, 2 input error, 3 pipeline failure, 4 degraded
quality (too many carried points, no estimate at all, or a first estimate
after the report time). Only InputError and an input file that cannot be
read (missing, or a directory, say) are input errors; any other ValueError
is a pipeline failure. A negative --seed or --seed-base, --reps below the
suite's minimum, a --config file that cannot be read and an output that
cannot be written (-o in a missing directory, or naming a directory) are
usage errors. estimate checks that its -o, or the nearest existing
ancestor of it, is a directory before it reads the input, so a bad -o
costs no run. The five config keys resolve to one PipelineConfig, which
the stages read as it is.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import PipelineConfig, parse_config
from .errors import ConfigError, DegradedQualityError, InputError
from .evaluate import (
    DURATION,
    MIN_REPETITIONS,
    RECOVERY_HEART,
    RECOVERY_RESP,
    SAMPLE_RATE,
    SEED_BASE,
    Subject,
    default_scenarios,
    sweep,
)
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


def _int_at_least(least: int):
    """An integer argument of at least ``least``; a smaller one is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


# numpy's generators take only seeds >= 0.
_seed = _int_at_least(0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hrrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hrrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # synth defaults to the evaluation suite's recovery scene.
    recovery = RECOVERY_HEART.rate_trajectory
    p = sub.add_parser("synth", parents=[], help="synthesize a ground-truth trace")
    p.add_argument("-o", "--output", required=True, help="trace CSV path")
    p.add_argument("--duration", type=float, default=DURATION)
    p.add_argument("--sample-rate", type=float, default=SAMPLE_RATE)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--resp-freq", type=float, default=RECOVERY_RESP.fundamental_freq, help="Hz")
    p.add_argument(
        "--resp-amps",
        default=",".join(map(str, RECOVERY_RESP.harmonic_amplitudes)),
        help="comma list, fundamental first (mm)",
    )
    p.add_argument("--resp-phase", type=float, default=RECOVERY_RESP.phase_offset)
    p.add_argument("--no-resp", action="store_true")
    p.add_argument("--hr-initial", type=float, default=recovery.hr_initial)
    p.add_argument("--hr-final", type=float, default=recovery.hr_final)
    p.add_argument("--hr-tau", type=float, default=recovery.time_constant)
    p.add_argument("--hr-const", type=float, help="overrides the recovery curve")
    p.add_argument("--hr-ramp", help="start,end,t_end linear trajectory")
    p.add_argument("--heart-amp", type=float, default=RECOVERY_HEART.amplitude, help="mm")
    p.add_argument("--heart-waveform", choices=[s.value for s in WaveformShape],
                   default=RECOVERY_HEART.waveform_shape.value)
    p.add_argument("--no-heart", action="store_true")
    p.add_argument("--noise-std", type=float, default=0.0, help="mm")
    p.add_argument("--snr-db", type=float, help="displacement SNR; overrides --noise-std")

    p = sub.add_parser("simulate", help="radar front end over a trace")
    p.add_argument("trace", help="input trace CSV")
    p.add_argument("-o", "--output", required=True, help="cube binary path")
    p.add_argument("--base-range", type=float, default=Subject.base_range, help="m")
    p.add_argument("--drift", type=float, default=Target.drift, help="m/s")
    p.add_argument("--noise-floor", type=float, default=TargetScene.noise_floor,
                   help="relative power")
    p.add_argument("--carrier", type=float, default=RadarConfig.carrier_freq)
    p.add_argument("--bandwidth", type=float, default=RadarConfig.bandwidth)
    p.add_argument("--seed", type=_seed, default=0)

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
    p.add_argument("--reps", type=_int_at_least(MIN_REPETITIONS), default=MIN_REPETITIONS)
    p.add_argument("--seed-base", type=_seed, default=SEED_BASE)
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
    with _writing_output(args.output):
        write_trace(trace, args.output)
    print(f"wrote {args.output} ({trace.duration:.1f} s at {trace.sample_rate:.0f} Hz)")
    return EXIT_OK


class OutputError(Exception):
    """An output path that cannot be written; a usage error, since -o names it."""


@contextmanager
def _reading_input(path):
    """Raise an OSError from reading the input file as an InputError naming it."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"{path}: cannot read input: {exc.strerror or exc}") from exc


@contextmanager
def _writing_output(path):
    """Raise an OSError from writing the outputs as an OutputError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc


def _cmd_simulate(args) -> int:
    with _reading_input(args.trace):
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
    with _writing_output(args.output):
        write_cube(cube, args.output)
    print(f"wrote {args.output} ({cube.n_frames} frames x {cube.iq.shape[1]} samples)")
    return EXIT_OK


def _load_input_trace(args):
    path = Path(args.input)
    with _reading_input(path):
        with open(path, "rb") as fh:
            head = fh.read(16)
        if not head.startswith(b"hrrkit-cube"):
            return read_trace(path)
        if args.expected_range is None:
            raise ConfigError("cube input requires --expected-range")
        cube = read_cube(path)
    seq = track_target(cube, args.expected_range)
    return phase_to_displacement(seq, args.wavelength)


def _check_output_dir(out: Path) -> None:
    """Raise OutputError unless ``out``, or its nearest existing ancestor, is a directory."""
    with _writing_output(out):
        existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise OutputError(f"{out}: {existing} is not a directory")


def _cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.output_dir)
    # Checked before the run, which it would waste, and without creating
    # anything, so an input error leaves no output directory.
    _check_output_dir(out)
    series, report = estimate_trace(_load_input_trace(args), cfg)
    with _writing_output(out):
        out.mkdir(parents=True, exist_ok=True)
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
    with _writing_output(out):
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
    with _writing_output(out):
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
    except OutputError as exc:
        print(f"hrrkit: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
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
