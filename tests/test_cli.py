import inspect
from dataclasses import fields

import numpy as np
import pytest

from hrrkit import cli
from hrrkit.cli import main
from hrrkit.config import PipelineConfig, parse_config
from hrrkit.errors import ConfigError, DegenerateSignalError
from hrrkit.hr_estimate import WindowConfig, condition_heartbeat, run_composite_windows
from hrrkit.io import read_trace
from hrrkit.mode_select import ModeSelectConfig
from hrrkit.preprocess import FilterSpec
from hrrkit.signal_model import ExponentialRecovery
from hrrkit.vmd import GateThresholds, VmdParams, select_alpha


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config()
        assert cfg == PipelineConfig()

    def test_override_propagates(self):
        cfg = parse_config(overrides={"mu1": "0.5"})
        assert cfg.gates().mu1 == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="mu2"):
            parse_config(overrides={"mu2": "1.5"})

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ConfigError, match="valid keys"):
            parse_config(overrides={"nonsense": "1"})

    def test_file_plus_override_precedence(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# comment\nmu1=0.3\nk_modes=5\n")
        cfg = parse_config(f, overrides={"mu1": "0.25"})
        assert cfg.mu1 == 0.25 and cfg.k_modes == 5

    def test_inconsistent_window_bounds_rejected(self):
        with pytest.raises(ConfigError, match="l_min_bounds"):
            parse_config(overrides={"l_b_max": "6"})  # default l_min_hi=7 exceeds it

    def test_defaults_come_from_stage_classes(self):
        cfg = PipelineConfig()
        assert cfg.filter_spec() == FilterSpec()
        assert cfg.vmd_params() == VmdParams()
        assert cfg.gates() == GateThresholds()
        assert cfg.mode_select_config() == ModeSelectConfig()
        assert cfg.window_config() == WindowConfig()
        alpha_search = inspect.signature(select_alpha).parameters
        assert alpha_search["alpha_range"].default == (cfg.alpha_lo, cfg.alpha_hi)
        assert alpha_search["ratio_tol"].default == cfg.alpha_ratio_tol
        conditioning = inspect.signature(condition_heartbeat).parameters
        assert conditioning["smooth_window"].default == cfg.smooth_window
        assert conditioning["envelope_floor"].default == cfg.envelope_floor
        sweep = inspect.signature(run_composite_windows).parameters
        assert sweep["carry_limit"].default == cfg.carry_limit

    def test_non_finite_values_rejected(self):
        for key in (f.name for f in fields(PipelineConfig)):
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=key):
                    parse_config(overrides={key: raw})
                with pytest.raises(ConfigError, match=f"{key} must be finite"):
                    PipelineConfig(**{key: float(raw)}).validate()

    @pytest.mark.parametrize("key", ["smooth_window", "peak_band_halfwidth"])
    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_non_positive_width_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key} must be > 0"):
            parse_config(overrides={key: raw})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"alpha_lo": "2e6"}, "alpha_lo < alpha_hi"),
            ({"alpha_lo": "0"}, "alpha_lo < alpha_hi"),
            ({"alpha_ratio_tol": "1.0"}, "alpha_ratio_tol must be > 1"),
        ],
    )
    def test_bad_alpha_bracket_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(overrides=overrides)

    def test_echo_round_trip(self, tmp_path):
        cfg = parse_config(overrides={"mu1": "0.3", "l_b_max": "6", "l_min_hi": "5"})
        f = tmp_path / "echo.txt"
        f.write_text(cfg.echo())
        assert parse_config(f) == cfg


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main([
        "synth", "-o", str(d / "trace.csv"),
        "--duration", "66", "--snr-db", "15", "--seed", "3",
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def cube_1m(synth_dir):
    cube = synth_dir / "cube_1m.bin"
    assert main([
        "simulate", str(synth_dir / "trace.csv"), "-o", str(cube), "--base-range", "1.0",
    ]) == 0
    return cube


class TestCliFlows:
    def test_estimate_end_to_end(self, synth_dir):
        out = synth_dir / "est"
        rc = main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(out), "--dump-modes",
        ])
        assert rc == 0
        assert (out / "hr.csv").exists()
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        assert (out / "modes.csv").exists()
        assert (out / "config_echo.txt").exists()
        header = (out / "hr.csv").read_text().splitlines()[0]
        assert header == "time_s,hr_bpm,l_b_s,flag"
        modes = (out / "modes.csv").read_text().splitlines()
        assert modes[0].startswith("window_start_s,mode_idx,omega_hz")
        assert len(modes) > 10

    def test_estimate_recovery_accuracy(self, synth_dir):
        out = synth_dir / "est_acc"
        assert main(["estimate", str(synth_dir / "trace.csv"), "-o", str(out)]) == 0
        report = dict(
            line.split("=") for line in (out / "report.txt").read_text().splitlines()
        )
        assert float(report["mean_abs_error_bpm"]) <= 3.5
        # the reported drop matches the 152->120 tau=30 trajectory's true
        # decrease over the series' own span
        first_t = float((out / "hr.csv").read_text().splitlines()[1].split(",")[0])
        truth = ExponentialRecovery(152.0, 120.0, 30.0)
        true_drop = float(truth(first_t)) - float(truth(60.0))
        assert abs(float(report["hrr_60_bpm"]) - true_drop) <= 3.5

    def test_too_short_trace_names_minimum(self, synth_dir, capsys):
        short = synth_dir / "short"
        assert main([
            "synth", "-o", str(short / "t.csv"), "--duration", "10",
        ]) == 0 or True  # synth of short traces is fine
        main(["synth", "-o", str(synth_dir / "short.csv"), "--duration", "10"])
        rc = main(["estimate", str(synth_dir / "short.csv"), "-o", str(synth_dir / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "16" in captured.err  # names the l_a minimum

    def test_cube_flow(self, synth_dir):
        cube = synth_dir / "cube.bin"
        assert main([
            "simulate", str(synth_dir / "trace.csv"), "-o", str(cube),
            "--base-range", "1.2",
        ]) == 0
        out = synth_dir / "est_cube"
        assert main([
            "estimate", str(cube), "-o", str(out), "--expected-range", "1.2",
        ]) == 0
        assert (out / "hr.csv").exists()

    def test_cube_without_range_is_usage_error(self, synth_dir):
        cube = synth_dir / "cube.bin"
        rc = main(["estimate", str(cube), "-o", str(synth_dir / "y")])
        assert rc == 1

    def test_nonuniform_trace_is_input_error(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "trace.csv").read_text().splitlines()
        del lines[1001]  # data row 1000 (t = 10 s) sat on line 1002
        gap = tmp_path / "gap.csv"
        gap.write_text("\n".join(lines) + "\n")
        (tmp_path / "gap.meta").write_bytes((synth_dir / "trace.meta").read_bytes())
        rc = main(["estimate", str(gap), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "gap.csv:1002:" in capsys.readouterr().err

    def test_missing_input_is_input_error(self, synth_dir):
        rc = main(["estimate", str(synth_dir / "nope.csv"), "-o", str(synth_dir / "z")])
        assert rc == 2

    @pytest.mark.parametrize(
        "exc", [ValueError("internal"), DegenerateSignalError("internal")]
    )
    def test_internal_value_error_is_pipeline_failure(
        self, synth_dir, monkeypatch, capsys, exc
    ):
        def broken(trace, cfg):
            raise exc

        monkeypatch.setattr(cli, "estimate_trace", broken)
        rc = main(["estimate", str(synth_dir / "trace.csv"), "-o", str(synth_dir / "v")])
        assert rc == 3
        assert "input error" not in capsys.readouterr().err

    def test_phase_trace_is_input_error(self, synth_dir, tmp_path, capsys):
        (tmp_path / "t.csv").write_bytes((synth_dir / "trace.csv").read_bytes())
        meta = (synth_dir / "trace.meta").read_text()
        assert "unit=mm" in meta
        (tmp_path / "t.meta").write_text(meta.replace("unit=mm", "unit=rad"))
        rc = main(["estimate", str(tmp_path / "t.csv"), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "displacement trace in mm" in capsys.readouterr().err

    def test_bad_synth_argument_is_input_error(self, tmp_path):
        rc = main(["synth", "-o", str(tmp_path / "t.csv"), "--resp-amps", "1.0,x"])
        assert rc == 2

    @pytest.mark.parametrize("args", [["--hr-tau", "0"], ["--hr-ramp", "100,55,0"]])
    def test_bad_trajectory_is_input_error(self, tmp_path, args):
        out = tmp_path / "t.csv"
        assert main(["synth", "-o", str(out), "--duration", "20", *args]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--duration", "0"], "duration"),
            (["--noise-std", "-1"], "noise_std"),
            (["--heart-amp", "1.5"], "heartbeat amplitude"),
            (["--hr-const", "300"], "rate_trajectory"),
        ],
    )
    def test_bad_synthesis_argument_is_input_error(self, tmp_path, capsys, args, message):
        rc = main(["synth", "-o", str(tmp_path / "t.csv"), "--duration", "20", *args])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sample-rate", "10"], "sample_rate must be"),
            (["--duration", "0.001"], "at least 2 are needed"),
        ],
    )
    def test_unsamplable_synthesis_is_input_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "t.csv"
        assert main(["synth", "-o", str(out), *args]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_trace_short_of_report_time_is_input_error(self, tmp_path, capsys):
        trace = tmp_path / "t20.csv"
        assert main(["synth", "-o", str(trace), "--duration", "20"]) == 0
        capsys.readouterr()
        rc = main(["estimate", str(trace), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "recovery report needs HR up to 60 s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("bin_size", "0.0"), ("frames", "0"), ("frame_rate", "10.0"),
         ("frame_rate", "-100.0"), ("sample", "nan")],
    )
    def test_unusable_cube_is_input_error(self, synth_dir, tmp_path, capsys, field, value):
        cube = tmp_path / "cube.bin"
        assert main([
            "simulate", str(synth_dir / "trace.csv"), "-o", str(cube), "--base-range", "1.0",
        ]) == 0
        data = bytearray(cube.read_bytes())
        end = data.index(b"end-header\n") + len(b"end-header\n")
        if field == "sample":
            data[end + 4000 * 8:end + 4000 * 8 + 4] = np.float32(value).tobytes()
        else:
            start = data.index(f"\n{field}=".encode()) + 1
            stop = data.index(b"\n", start)
            data[start:stop] = f"{field}={value}".encode()
            if field == "frames":
                data = data[:data.index(b"end-header\n") + len(b"end-header\n")]
        cube.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(["estimate", str(cube), "-o", str(tmp_path / "out"), "--expected-range", "1.0"])
        assert rc == 2
        assert "input error: " + str(cube) in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_range_is_input_error(self, cube_1m, tmp_path, capsys, value):
        rc = main([
            "estimate", str(cube_1m), "-o", str(tmp_path / "out"), "--expected-range", value,
        ])
        assert rc == 2
        assert "expected_range must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.004"])
    def test_bad_wavelength_is_input_error(self, cube_1m, tmp_path, capsys, value):
        rc = main([
            "estimate", str(cube_1m), "-o", str(tmp_path / "out"),
            "--expected-range", "1.0", "--wavelength", value,
        ])
        assert rc == 2
        assert "--wavelength must be finite and > 0" in capsys.readouterr().err

    def test_non_finite_trace_is_input_error(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "trace.csv").read_text().splitlines()
        lines[501] = lines[501].split(",")[0] + ",nan"
        (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
        rc = main(["estimate", str(tmp_path / "nan.csv"), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "nan.csv:502: non-finite" in capsys.readouterr().err

    def test_range_outside_spectrum_is_input_error(self, synth_dir, tmp_path, capsys):
        cube = tmp_path / "cube.bin"
        assert main([
            "simulate", str(synth_dir / "trace.csv"), "-o", str(cube), "--base-range", "1.2",
        ]) == 0
        rc = main([
            "estimate", str(cube), "-o", str(tmp_path / "out"), "--expected-range", "500",
        ])
        assert rc == 2
        assert "outside the spectrum" in capsys.readouterr().err

    def test_target_outside_range_is_input_error(self, synth_dir, tmp_path, capsys):
        rc = main([
            "simulate", str(synth_dir / "trace.csv"), "-o", str(tmp_path / "c.bin"),
            "--base-range", "100",
        ])
        assert rc == 2
        assert "unambiguous range" in capsys.readouterr().err

    def test_bad_radar_argument_is_input_error(self, synth_dir, tmp_path):
        rc = main([
            "simulate", str(synth_dir / "trace.csv"), "-o", str(tmp_path / "c.bin"),
            "--noise-floor", "-1",
        ])
        assert rc == 2

    def test_bad_config_value_is_usage_error(self, synth_dir):
        rc = main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(synth_dir / "w"),
            "--set", "mu2=1.5",
        ])
        assert rc == 1

    def test_synth_writes_ground_truth(self, synth_dir):
        trace = read_trace(synth_dir / "trace.csv")
        assert trace.ground_truth is not None
        assert float(trace.ground_truth.heart_rate_at(0.0)) == pytest.approx(152.0)

    def test_flat_trace_degraded_quality_exit(self, synth_dir, tmp_path):
        flat = tmp_path / "flat.csv"
        lines = ["time_s,displacement_mm"] + [
            f"{i/100:.6f},0.000000000000e+00" for i in range(6600)
        ]
        flat.write_text("\n".join(lines) + "\n")
        rc = main(["estimate", str(flat), "-o", str(tmp_path / "out")])
        assert rc == 4

    def test_eval_subcommand_with_scenario_filter(self, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "eval", "-o", str(out), "--scenario", "zero_noise_no_harmonics",
            "--reps", "3", "--seed-base", "300",
        ])
        assert rc == 0
        table = (out / "scoretable.csv").read_text().splitlines()
        assert table[0] == "scenario,rep,seed,delta_hr_bpm,status"
        assert len(table) == 4  # header + 3 repetitions
        assert (out / "summary.csv").exists()
        assert (out / "archive" / "zero_noise_no_harmonics" / "rep_0" / "hr.csv").exists()

    def test_eval_unknown_scenario_usage_error(self, tmp_path):
        rc = main(["eval", "-o", str(tmp_path / "x"), "--scenario", "nope"])
        assert rc == 1

    def test_config_echo_reproduces_outputs(self, synth_dir):
        out1 = synth_dir / "echo1"
        out2 = synth_dir / "echo2"
        assert main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(out1),
            "--set", "l_min=4.5",
        ]) == 0
        assert main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(out2),
            "--config", str(out1 / "config_echo.txt"),
        ]) == 0
        assert (out1 / "hr.csv").read_bytes() == (out2 / "hr.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
