import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from hrrkit import cli, hr_estimate, preprocess, vmd
from hrrkit.cli import main
from hrrkit.evaluate import DURATION, RECOVERY_HEART, RECOVERY_RESP, SAMPLE_RATE
from hrrkit.config import PipelineConfig, parse_config
from hrrkit.errors import ConfigError
from hrrkit.io import read_trace, write_trace
from hrrkit.signal_model import ExponentialRecovery, synthesize_trace

# Stage values that were config keys until they were pinned in the module
# that reads them: each key's module, constant and value.
PINNED_KEYS = {
    "pass_low": (preprocess, "PASS_LOW_HZ", 0.2),
    "pass_high": (preprocess, "PASS_HIGH_HZ", 3.4),
    "alpha_lo": (vmd, "ALPHA_LO", 10.0),
    "alpha_hi": (vmd, "ALPHA_HI", 1e6),
    "alpha_ratio_tol": (vmd, "ALPHA_RATIO_TOL", 1.1),
    "vmd_tolerance": (vmd, "TOLERANCE", 1e-7),
    "vmd_max_iters": (vmd, "MAX_ITERS", 500),
    "l_min_lo": (hr_estimate, "L_MIN_BOUNDS", (3.0, 7.0)),
    "l_min_hi": (hr_estimate, "L_MIN_BOUNDS", (3.0, 7.0)),
    "cadence": (hr_estimate, "CADENCE", 1.0),
    "smooth_window": (hr_estimate, "SMOOTH_WINDOW", 0.12),
    "envelope_floor": (hr_estimate, "ENVELOPE_FLOOR", 0.1),
    "carry_limit": (hr_estimate, "CARRY_LIMIT", 0.5),
}


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config()
        assert cfg == PipelineConfig()

    def test_override_propagates(self):
        cfg = parse_config(overrides={"mu1": "0.5"})
        assert cfg.mu1 == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="mu2"):
            parse_config(overrides={"mu2": "1.5"})

    def test_unknown_key_lists_valid(self):
        # These were keys once, and are now pinned where they are read; a
        # config naming them is rejected like any unknown key.
        for key in ("nonsense", "tau", "mirror_frac", "rel_peak_floor", *PINNED_KEYS):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'.*valid keys"):
                parse_config(overrides={key: "1"})

    def test_file_plus_override_precedence(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("# comment\nmu1=0.3\nk_modes=5\n")
        cfg = parse_config(f, overrides={"mu1": "0.25"})
        assert cfg.mu1 == 0.25 and cfg.k_modes == 5

    def test_inconsistent_window_bounds_rejected(self):
        # The adapted l_min's upper bound, 7 s, exceeds it.
        with pytest.raises(ConfigError, match="l_b_max must be >= 7.0 s"):
            parse_config(overrides={"l_b_max": "6"})

    def test_fields_and_defaults(self):
        cfg = PipelineConfig()
        assert {f.name: getattr(cfg, f.name) for f in fields(cfg)} == {
            "k_modes": 6, "mu1": 0.2, "mu2": 1e-4, "l_min": 5.0, "l_b_max": 8.0,
        }
        assert (cfg.stride, cfg.l_a) == (8.0, 16.0)

    def test_defaults_come_from_stage_classes(self):
        # The stage classes that held the defaults are folded into
        # PipelineConfig. No stage keeps a default of its own for a value the
        # config holds, so PipelineConfig's defaults are the only ones.
        config_params = {
            vmd.vmd_decompose: ("K", "alpha"),
            vmd.select_alpha: ("cfg",),
            hr_estimate.run_composite_windows: ("cfg",),
            hr_estimate.count_hr: ("l_min",),
        }
        for stage, names in config_params.items():
            params = inspect.signature(stage).parameters
            for name in names:
                assert params[name].default is inspect.Parameter.empty, (stage.__name__, name)

    def test_pinned_keys_are_module_constants(self):
        for key, (module, name, value) in PINNED_KEYS.items():
            assert getattr(module, name) == value, key
        assert vmd.SWEEP_EDGE_HZ == 25.0

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_file_rejected(self, tmp_path, kind):
        path = tmp_path / "nope.txt" if kind == "missing" else tmp_path
        with pytest.raises(ConfigError, match=f"{path}: cannot read config"):
            parse_config(path)

    def test_non_finite_values_rejected(self):
        for key in (f.name for f in fields(PipelineConfig)):
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=key):
                    parse_config(overrides={key: raw})
                with pytest.raises(ConfigError, match=f"{key} must be finite"):
                    PipelineConfig(**{key: float(raw)})

    @pytest.mark.parametrize(
        "overrides, match",
        [({"k_modes": 9}, "K must be in"),
         ({"l_min": 9.0}, "l_min must be in"),
         # Both ends of the K, mu1 and mu2 ranges.
         ({"k_modes": 1}, "K must be in"),
         ({"k_modes": 8}, "K must be in"),
         ({"mu1": 0.0}, "mu1 must be in"),
         ({"mu1": 1.0}, "mu1 must be in"),
         ({"mu2": -1e-9}, "mu2 must be in"),
         ({"mu2": 1.0}, "mu2 must be in")],
    )
    def test_config_built_in_code_is_checked(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            PipelineConfig(**overrides)

    def test_echo_round_trip(self, tmp_path):
        cfg = parse_config(overrides={"mu1": "0.3", "k_modes": "5", "l_min": "4.5",
                                      "l_b_max": "9"})
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
        # Short of both l_a and the report time, the l_a rule is named.
        assert main(["synth", "-o", str(synth_dir / "short.csv"), "--duration", "10"]) == 0
        rc = main(["estimate", str(synth_dir / "short.csv"), "-o", str(synth_dir / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "16" in captured.err  # names the l_a minimum
        assert not (synth_dir / "x").exists()

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

    def test_cut_cube_without_range_names_the_flag(self, cube_1m, tmp_path, capsys):
        # The flag is checked before the payload is read, so a cube cut
        # mid-float reports the missing flag, not the payload (exit 2).
        cut = tmp_path / "cut.bin"
        cut.write_bytes(cube_1m.read_bytes()[:-1])
        capsys.readouterr()
        rc = main(["estimate", str(cut), "-o", str(tmp_path / "out")])
        assert rc == 1
        assert "--expected-range" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_directory_input_is_input_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, str(tmp_path), "-o", str(out)]) == 2
        assert f"input error: {tmp_path}: cannot read input" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "t.csv"
        assert main(["synth", "-o", str(target), "--duration", "20"]) == 1
        err = capsys.readouterr().err
        assert f"hrrkit: cannot write output: {target}: No such file or directory" in err
        assert "input error" not in err

    def test_simulate_onto_directory_is_usage_error(self, synth_dir, tmp_path, capsys):
        assert main(["simulate", str(synth_dir / "trace.csv"), "-o", str(tmp_path)]) == 1
        assert f"hrrkit: cannot write output: {tmp_path}: Is a directory" in (
            capsys.readouterr().err)

    def test_estimate_into_a_file_is_usage_error(self, synth_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["estimate", str(synth_dir / "trace.csv"), "-o", str(blocker / "out")])
        assert rc == 1
        assert f"hrrkit: cannot write output: {blocker / 'out'}:" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [True, False], ids=["below-a-file", "a-file"])
    def test_output_under_a_file_fails_before_the_estimate(
        self, synth_dir, tmp_path, monkeypatch, capsys, below
    ):
        def never(trace, cfg):
            raise AssertionError("estimated before checking the output path")

        monkeypatch.setattr(cli, "estimate_trace", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        rc = main(["estimate", str(synth_dir / "trace.csv"), "-o", str(out)])
        assert rc == 1
        assert f"hrrkit: cannot write output: {out}: {blocker} is not a directory" in (
            capsys.readouterr().err)
        assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_series_starting_after_report_time_is_degraded(self, tmp_path, capsys):
        # With its first 64 s zeroed, a 100 s trace's first estimate comes
        # after 60 s, where the report reads its HR.
        assert main(["synth", "-o", str(tmp_path / "t100.csv"), "--duration", "100"]) == 0
        trace = read_trace(tmp_path / "t100.csv")
        samples = trace.samples.copy()
        samples[: round(64 * trace.sample_rate)] = 0.0
        write_trace(replace(trace, samples=samples), tmp_path / "late.csv")
        out = tmp_path / "out"
        rc = main(["estimate", str(tmp_path / "late.csv"), "-o", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "hrrkit: degraded quality: the first HR estimate is at" in err
        assert "after the report time 60 s" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_is_usage_error(self, synth_dir, tmp_path, capsys, kind):
        config = tmp_path / "nope.txt" if kind == "missing" else tmp_path
        out = tmp_path / "out"
        rc = main(["estimate", str(synth_dir / "trace.csv"), "-o", str(out),
                   "--config", str(config)])
        assert rc == 1
        assert f"config error: {config}: cannot read config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [ValueError("internal")])
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

    def test_phase_trace_is_input_error_for_simulate(self, synth_dir, tmp_path, capsys):
        (tmp_path / "t.csv").write_bytes((synth_dir / "trace.csv").read_bytes())
        meta = (synth_dir / "trace.meta").read_text()
        (tmp_path / "t.meta").write_text(meta.replace("unit=mm", "unit=rad"))
        rc = main(["simulate", str(tmp_path / "t.csv"), "-o", str(tmp_path / "c.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "displacement trace in mm" in err
        assert "estimate" not in err
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-100.0", "0"])
    def test_unusable_sidecar_rate_is_input_error(self, synth_dir, tmp_path, capsys, rate):
        (tmp_path / "t.csv").write_bytes((synth_dir / "trace.csv").read_bytes())
        meta = (synth_dir / "trace.meta").read_text()
        assert "sample_rate=100.0\n" in meta
        (tmp_path / "t.meta").write_text(meta.replace("sample_rate=100.0", f"sample_rate={rate}"))
        out = tmp_path / "out"
        assert main(["estimate", str(tmp_path / "t.csv"), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 't.csv'}: sample_rate must be finite and >= 20.0 Hz" in err
        assert not out.exists()

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
            (["--snr-db", "nan"], "snr_db must be a number above -inf, got nan"),
        ],
    )
    def test_bad_synthesis_argument_is_input_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "t.csv"
        rc = main(["synth", "-o", str(out), "--duration", "20", *args])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["--heart-amp", "nan"], ["--heart-amp", "inf"], ["--hr-const", "nan"],
         ["--resp-freq", "nan"], ["--resp-amps", "1.0,nan"], ["--resp-phase", "inf"],
         ["--noise-std", "nan"], ["--hr-tau", "nan"], ["--hr-ramp", "100,55,nan"]],
    )
    def test_non_finite_synthesis_argument_is_input_error(self, tmp_path, capsys, args):
        out = tmp_path / "t.csv"
        assert main(["synth", "-o", str(out), *args]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".meta").exists()

    def test_synth_defaults_are_the_recovery_scene(self, tmp_path):
        assert main(["synth", "-o", str(tmp_path / "t.csv")]) == 0
        trace = synthesize_trace(RECOVERY_RESP, RECOVERY_HEART, 0.0, SAMPLE_RATE, DURATION, 0)
        write_trace(trace, tmp_path / "scene.csv")
        for suffix in (".csv", ".meta"):
            assert (tmp_path / f"t{suffix}").read_bytes() == (
                tmp_path / f"scene{suffix}").read_bytes()

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

    @pytest.mark.parametrize("scale, message", [
        (1e160, "lies outside [1e-140, 1e+151] mm"),
        (1e-160, "lies outside [1e-140, 1e+151] mm"),
        (1e100, None),
    ])
    def test_extreme_amplitude_is_input_error(self, synth_dir, tmp_path, capsys, scale, message):
        trace = read_trace(synth_dir / "trace.csv")
        write_trace(replace(trace, samples=trace.samples * scale), tmp_path / "t.csv")
        out = tmp_path / "out"
        rc = main(["estimate", str(tmp_path / "t.csv"), "-o", str(out)])
        if message is None:
            assert rc == 0
            unscaled = tmp_path / "unscaled"
            assert main(["estimate", str(synth_dir / "trace.csv"), "-o", str(unscaled)]) == 0
            assert (out / "report.txt").read_text() == (unscaled / "report.txt").read_text()
        else:
            assert rc == 2
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
        "duration, extra, message",
        [
            # 60.00 s differences to 59.99 s, one output short of 60 s.
            ("60", [], "recovery report needs HR up to 60 s"),
            # l_a = 66 s, one sample longer than the differenced trace.
            ("66", ["--set", "l_b_max=33"], "l_a=66.00 s"),
        ],
        ids=["60s", "66s-l_b_max33"],
    )
    def test_trace_short_after_differencing_is_input_error(
        self, tmp_path, capsys, duration, extra, message
    ):
        trace = tmp_path / "t.csv"
        assert main(["synth", "-o", str(trace), "--duration", duration]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["estimate", str(trace), "-o", str(out), *extra])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        assert "wavelength must be finite and > 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("args,message", [
        (["--carrier", "nan"], "carrier_freq and bandwidth must be finite"),
        (["--carrier", "inf"], "carrier_freq and bandwidth must be finite"),
        (["--bandwidth", "inf"], "carrier_freq and bandwidth must be finite"),
        (["--base-range", "nan"], "unambiguous range"),
        (["--noise-floor", "nan"], "noise_floor must be finite"),
    ])
    def test_non_finite_radar_argument_is_input_error(self, synth_dir, tmp_path, capsys,
                                                      args, message):
        cube = tmp_path / "c.bin"
        rc = main(["simulate", str(synth_dir / "trace.csv"), "-o", str(cube), *args])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not cube.exists()

    def test_bad_config_value_is_usage_error(self, synth_dir):
        rc = main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(synth_dir / "w"),
            "--set", "mu2=1.5",
        ])
        assert rc == 1

    def test_removed_key_is_usage_error(self, synth_dir, tmp_path, capsys):
        rc = main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(tmp_path / "out"),
            "--set", "tau=0",
        ])
        assert rc == 1
        assert "config error: unknown config key 'tau'" in capsys.readouterr().err

    def test_pinned_key_is_usage_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "estimate", str(synth_dir / "trace.csv"), "-o", str(out),
            "--set", "vmd_max_iters=250",
        ])
        assert rc == 1
        assert "config error: unknown config key 'vmd_max_iters'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_constant_trace_degraded_quality_exit(self, tmp_path, capsys):
        # A nonzero constant band-passes to rounding noise alone, which once
        # read as a heartbeat and exited 0.
        constant = tmp_path / "constant.csv"
        lines = ["time_s,displacement_mm"] + [
            f"{i/100:.6f},1.000000000000e+00" for i in range(6600)
        ]
        constant.write_text("\n".join(lines) + "\n")
        rc = main(["estimate", str(constant), "-o", str(tmp_path / "out")])
        assert rc == 4
        assert "no window produced a usable HR estimate" in capsys.readouterr().err

    def test_eval_subcommand_with_scenario_filter(self, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "eval", "-o", str(out), "--scenario", "zero_noise_no_harmonics",
            "--reps", "3", "--seed-base", "300",
        ])
        assert rc == 0
        table = (out / "scoretable.csv").read_text().splitlines()
        assert table[0] == "scenario,rep,seed,delta_hr_bpm,max_err_bpm,hrr60_err_bpm,status"
        assert len(table) == 4  # header + 3 repetitions
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ("scenario,n_ok,mean_delta_hr_bpm,std_delta_hr_bpm,"
                              "max_err_bpm,mean_hrr60_err_bpm")
        assert (out / "archive" / "zero_noise_no_harmonics" / "rep_0" / "hr.csv").exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["synth", "-o", "{out}", "--seed", "-1", "--snr-db", "15"], "--seed"),
            (["simulate", "{trace}", "-o", "{out}", "--noise-floor", "1e-4", "--seed", "-1"],
             "--seed"),
            (["eval", "-o", "{out}", "--seed-base", "-25", "--scenario", "recovery_snr15"],
             "--seed-base"),
        ],
    )
    def test_negative_seed_is_usage_error(self, synth_dir, tmp_path, capsys, args, flag):
        out = tmp_path / "out"
        argv = [a.format(out=out, trace=synth_dir / "trace.csv") for a in args]
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected an integer >= 0, got '-" in err
        assert not out.exists()

    def test_too_few_reps_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stopped:
            main(["eval", "-o", str(out), "--reps", "2", "--scenario", "recovery_snr15"])
        assert stopped.value.code == 1
        assert "error: argument --reps: expected an integer >= 3, got '2'" in (
            capsys.readouterr().err)
        assert not out.exists()

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
