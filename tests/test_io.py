import numpy as np
import pytest

from hrrkit.errors import InputError
from hrrkit.hr_estimate import HrSeries, WindowResult
from hrrkit.io import (
    MODES_HEADER,
    read_cube,
    read_trace,
    write_cube,
    write_mode_dump,
    write_trace,
)
from hrrkit.radar import RadarConfig, Target, TargetScene, simulate_frames
from hrrkit.signal_model import (
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    synthesize_trace,
)


def cube_file(path, frames=3, samples=4, frame_rate="100.0", bin_size="0.05", nan_at=None):
    """A small hand-made cube file; ``nan_at`` poisons one payload float."""
    payload = np.ones(frames * samples * 2, dtype="<f4")
    if nan_at is not None:
        payload[nan_at] = np.nan
    header = (
        f"hrrkit-cube v1\nframes={frames}\nsamples_per_chirp={samples}\n"
        f"frame_rate={frame_rate}\nbin_size={bin_size}\nend-header\n"
    )
    path.write_bytes(header.encode("ascii") + payload.tobytes())
    return path


class TestTraceCsv:
    @pytest.mark.parametrize(
        "trajectory",
        [ConstantRate(130.0), LinearRamp(100.0, 55.0, 60.0), ExponentialRecovery(150.0, 118.0, 28.0)],
        ids=["constant", "linear", "exponential_recovery"],
    )
    def test_round_trip_with_metadata(self, tmp_path, trajectory):
        resp = RespirationModel(0.35, (1.0, 0.25), phase_offset=0.4)
        heart = HeartbeatModel(trajectory, 0.2, WaveformShape.PULSE)
        trace = synthesize_trace(resp, heart, 0.05, 100.0, 20.0, 9)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert (tmp_path / "trace.meta").exists()

        restored = read_trace(path)
        assert restored.sample_rate == trace.sample_rate
        assert np.allclose(restored.samples, trace.samples, atol=1e-10)
        gt = restored.ground_truth
        assert gt.seed == 9 and gt.noise_std == 0.05
        assert gt.respiration.harmonic_amplitudes == (1.0, 0.25)
        assert gt.heartbeat.rate_trajectory == trajectory
        assert gt.heartbeat.waveform_shape is WaveformShape.PULSE

    def test_custom_trajectory_reads_back_without_heartbeat_truth(self, tmp_path):
        heart = HeartbeatModel(lambda t: np.full_like(t, 90.0), 0.2)
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), heart, 0.0, 50.0, 10.0, 3)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert "heart_trajectory=custom\n" in (tmp_path / "t.meta").read_text()
        gt = read_trace(path).ground_truth
        assert gt.seed == 3 and gt.respiration is not None
        assert gt.heartbeat is None

    def test_missing_sidecar_infers_rate(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 50.0, 10.0, 0)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        (tmp_path / "t.meta").unlink()
        restored = read_trace(path)
        assert restored.sample_rate == pytest.approx(50.0)
        assert restored.ground_truth is None

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,displacement_mm\n0.0,1.0\nnot-a-row\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            read_trace(path)

    def test_dropped_row_reports_line(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 100.0, 2.0, 0)
        path = tmp_path / "gap.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        del lines[49]  # data row 48 (t = 0.48 s) sat on line 50
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="gap.csv:50: .*uniform"):
            read_trace(path)

    def test_jittered_row_reports_line(self, tmp_path):
        path = tmp_path / "jit.csv"
        rows = [f"{i / 100:.6f},0.0" for i in range(200)]
        rows[120] = f"{1.2 + 0.0003:.6f},0.0"  # 3% of a sample period late
        path.write_text("\n".join(["time_s,displacement_mm"] + rows) + "\n")
        with pytest.raises(ValueError, match="jit.csv:122:"):
            read_trace(path)

    def test_missing_sidecar_constant_times_rejected(self, tmp_path):
        path = tmp_path / "flat_t.csv"
        path.write_text("time_s,displacement_mm\n0.0,1.0\n0.0,2.0\n")
        with pytest.raises(ValueError, match="timestamps do not increase"):
            read_trace(path)

    def test_missing_sidecar_non_round_rate_accepted(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 30.0, 66.0, 0)
        path = tmp_path / "t30.csv"
        write_trace(trace, path)
        (tmp_path / "t30.meta").unlink()
        assert read_trace(path).sample_rate == pytest.approx(30.0)

    @pytest.mark.parametrize("row", ["0.010000,nan", "0.010000,-inf", "nan,1.0"])
    def test_non_finite_row_reports_line(self, tmp_path, row):
        path = tmp_path / "nan.csv"
        path.write_text(f"time_s,displacement_mm\n0.000000,1.0\n{row}\n0.020000,1.0\n")
        with pytest.raises(InputError, match="nan.csv:3: non-finite"):
            read_trace(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(path)

    def test_binary_file_is_input_error(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe\x00garbage\n")
        with pytest.raises(InputError, match="bin.csv:1: expected header"):
            read_trace(path)

    def test_malformed_sidecar_is_input_error(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 50.0, 10.0, 4)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        meta = tmp_path / "t.meta"
        meta.write_text(meta.read_text().replace("seed=4", "seed=four"))
        with pytest.raises(InputError, match="t.meta: bad sidecar entry"):
            read_trace(path)


class TestCubeFile:
    def test_round_trip(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (0.5,)), None, 0.0, 100.0, 3.0, 0)
        cube = simulate_frames(
            RadarConfig(), TargetScene((Target(1.0, trace),), noise_floor=1e-3), 3.0, 5
        )
        path = tmp_path / "cube.bin"
        write_cube(cube, path)
        restored = read_cube(path)
        assert restored.iq.shape == cube.iq.shape
        assert restored.frame_rate == cube.frame_rate
        assert restored.bin_size == pytest.approx(cube.bin_size)
        # float32 storage quantization
        assert np.allclose(restored.iq, cube.iq, atol=1e-5)

    def test_not_a_cube_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_text("time_s,displacement_mm\n0,1\n")
        with pytest.raises(ValueError, match="not a radar cube"):
            read_cube(path)

    def test_truncated_payload_rejected(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (0.5,)), None, 0.0, 100.0, 2.0, 0)
        cube = simulate_frames(RadarConfig(), TargetScene((Target(1.0, trace),)), 2.0, 0)
        path = tmp_path / "cube.bin"
        write_cube(cube, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_cube(path)

    def test_missing_header_field_is_input_error(self, tmp_path):
        path = tmp_path / "cube.bin"
        path.write_bytes(b"hrrkit-cube v1\nframes=1\nend-header\n")
        with pytest.raises(InputError, match="samples_per_chirp"):
            read_cube(path)

    def test_bytes_match_strided_interleave(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (0.5,)), None, 0.0, 100.0, 2.0, 0)
        cube = simulate_frames(
            RadarConfig(), TargetScene((Target(1.0, trace),), noise_floor=0.01), 2.0, 7
        )
        path = tmp_path / "cube.bin"
        write_cube(cube, path)
        flat = np.empty(cube.iq.size * 2, dtype="<f4")
        flat[0::2] = cube.iq.real.ravel()
        flat[1::2] = cube.iq.imag.ravel()
        data = path.read_bytes()
        assert data.endswith(b"end-header\n" + flat.tobytes())
        assert np.array_equal(read_cube(path).iq, cube.iq.astype(np.complex64))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"frames": 0}, "frames >= 1"),
            ({"samples": 1}, "samples_per_chirp >= 2"),
            ({"frame_rate": "10.0"}, "frame_rate"),
            ({"frame_rate": "-100.0"}, "frame_rate"),
            ({"frame_rate": "inf"}, "frame_rate"),
            ({"frame_rate": "nan"}, "frame_rate"),
            ({"bin_size": "0.0"}, "bin_size"),
            ({"bin_size": "-0.05"}, "bin_size"),
            ({"bin_size": "nan"}, "bin_size"),
            ({"nan_at": 13}, "frame 1 holds a non-finite"),
            ({"nan_at": 0}, "frame 0 holds a non-finite"),
        ],
    )
    def test_unusable_cube_is_input_error(self, tmp_path, fields, message):
        path = cube_file(tmp_path / "bad.bin", **fields)
        with pytest.raises(InputError, match=f"bad.bin: .*{message}"):
            read_cube(path)

    def test_writes_are_deterministic(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (0.5,)), None, 0.0, 100.0, 2.0, 0)
        scene = TargetScene((Target(1.0, trace),), noise_floor=0.01)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cube(simulate_frames(RadarConfig(), scene, 2.0, 3), a)
        write_cube(simulate_frames(RadarConfig(), scene, 2.0, 3), b)
        assert a.read_bytes() == b.read_bytes()


def mode_row(mode_idx, merged_from, label, energy):
    return {"window_start_s": 8.0, "mode_idx": mode_idx, "omega_hz": 2.17,
            "energy_share": 0.25, "label": label, "peak_freq_hz": 2.175,
            "energy": energy, "merged_from": merged_from}


class TestModeDump:
    def test_rows_name_the_modes_they_merge(self, tmp_path):
        window = WindowResult(8.0, None, alpha=3162.0, status="degenerate", mode_table=[
            mode_row(0, (0,), "respiration", 4.0),
            mode_row(1, (1, 4), "heartbeat", 1.5),
        ])
        path = tmp_path / "modes.csv"
        write_mode_dump(HrSeries([], 1.0, {1: window, 0: WindowResult(0.0, None)}), path)
        assert MODES_HEADER.endswith(",energy,merged_from")
        assert path.read_text().splitlines() == [
            MODES_HEADER,
            "8.000,0,2.1700,2.500000e-01,respiration,2.1750,4.000000e+00,0",
            "8.000,1,2.1700,2.500000e-01,heartbeat,2.1750,1.500000e+00,1+4",
        ]
