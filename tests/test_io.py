import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrrkit.errors import InputError
from hrrkit.hr_estimate import HrSeries, WindowResult
from hrrkit.io import (
    MODES_HEADER,
    TRACE_HEADER,
    _plain_rows,
    read_cube,
    read_trace,
    write_cube,
    write_mode_dump,
    write_trace,
)
from hrrkit.mode_select import ModeLabel
from hrrkit.radar import RadarConfig, RadarCube, Target, TargetScene, simulate_frames
from hrrkit.signal_model import (
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    synthesize_trace,
)
from hrrkit.vmd import AlphaSearch, ModeSet


def cube_file(path, frames=3, samples=4, frame_rate="100.0", bin_size="0.05", nan_at=None,
              cut=0):
    """A small hand-made cube file; ``nan_at`` poisons one payload float and
    ``cut`` drops that many bytes from the end."""
    payload = np.ones(frames * samples * 2, dtype="<f4")
    if nan_at is not None:
        payload[nan_at] = np.nan
    header = (
        f"hrrkit-cube v1\nframes={frames}\nsamples_per_chirp={samples}\n"
        f"frame_rate={frame_rate}\nbin_size={bin_size}\nend-header\n"
    )
    data = header.encode("ascii") + payload.tobytes()
    path.write_bytes(data[:len(data) - cut])
    return path


def traced_peak(fn):
    """The peak of memory that Python's allocators traced while ``fn()`` ran."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def per_row_trace_text(trace):
    """The trace CSV written one row at a time (test-only)."""
    lines = [TRACE_HEADER]
    for i, v in enumerate(trace.samples):
        lines.append(f"{i / trace.sample_rate:.6f},{v:.12e}")
    return "\n".join(lines) + "\n"


def line_loop_rows(text):
    """Times, values and line numbers of a trace CSV, one line at a time
    (test-only); None where a row is not two finite numbers."""
    times, values, linenos = [], [], []
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        try:
            t_str, v_str = line.split(",")
            t, v = float(t_str), float(v_str)
        except ValueError:
            return None
        if not (math.isfinite(t) and math.isfinite(v)):
            return None
        times.append(t)
        values.append(v)
        linenos.append(lineno)
    return times, values, linenos


def float_bits(values):
    return np.array(values, dtype=float).tobytes()


def panel_trace(sample_rate=100.0):
    return synthesize_trace(
        RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04)),
        HeartbeatModel(ExponentialRecovery(152.0, 120.0, 30.0), 0.15),
        0.05, sample_rate, 66.0, 120,
    )


# A CSV with blank lines, signs, bare points and exponents in both cases.
EXPONENT_CSV = (
    f"{TRACE_HEADER}\n"
    "\n"
    "0.000000,1.5e-3\n"
    "0.010000,-2.25E+01\n"
    "\n"
    "\n"
    "+0.020,3.\n"
    "3e-2,.5e2\n"
    "0.04,-0.0\n"
    "5.0E-2,7E0\n"
    "\n"
)


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

    def test_sidecar_rate_zero_is_used_as_given(self, tmp_path):
        # A sidecar rate that is present is the trace's rate, even where the
        # timestamps would give another; zero is below the floor.
        trace = synthesize_trace(RespirationModel(0.3, (1.0,)), None, 0.0, 50.0, 10.0, 4)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        meta = tmp_path / "t.meta"
        meta.write_text(meta.read_text().replace("sample_rate=50.0", "sample_rate=0"))
        with pytest.raises(InputError, match="t.csv: sample_rate must be finite and >= 20.0 Hz"):
            read_trace(path)


    @pytest.mark.parametrize("sample_rate", [100.0, 99.7])
    def test_bytes_match_per_row_form(self, tmp_path, sample_rate):
        trace = panel_trace(sample_rate)
        write_trace(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == per_row_trace_text(trace)

    def test_panel_trace_values_equal_line_loop(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(panel_trace(), path)
        (tmp_path / "t.meta").unlink()  # the rate comes from the parsed times
        text = path.read_text()
        expected = line_loop_rows(text)
        got = _plain_rows(text.splitlines()[1:])
        assert got is not None
        assert [float_bits(a) for a in got[:2]] == [float_bits(a) for a in expected[:2]]
        assert got[2] == expected[2] == list(range(2, 6602))
        times, values, _ = expected
        trace = read_trace(path)
        assert float_bits(trace.samples) == float_bits(values)
        assert trace.sample_rate == (len(times) - 1) / (times[-1] - times[0])

    def test_blank_lines_and_exponents_equal_line_loop(self, tmp_path):
        expected = line_loop_rows(EXPONENT_CSV)
        got = _plain_rows(EXPONENT_CSV.splitlines()[1:])
        assert got is not None
        assert [float_bits(a) for a in got[:2]] == [float_bits(a) for a in expected[:2]]
        assert got[2] == expected[2] == [3, 4, 7, 8, 9, 10]
        path = tmp_path / "e.csv"
        path.write_text(EXPONENT_CSV)
        assert float_bits(read_trace(path).samples) == float_bits(expected[1])

    @pytest.mark.parametrize(
        "rows, message",
        [
            # Three fields beside one: four numbers, but no row is a pair.
            (["0.00,1.0", "0.01,2.0,3.0", "4.0"], "bad.csv:3: malformed row '0.01,2.0,3.0'"),
            (["0.00,1.0", "0.01,2.0", "3.0"], "bad.csv:4: malformed row '3.0'"),
            (["0.00,1.0,5.0", "0.01,2.0,6.0"], "bad.csv:2: malformed row '0.00,1.0,5.0'"),
            (["0.00,1.0", ",2.0", "0.02,3.0"], "bad.csv:3: malformed row ',2.0'"),
            (["0.00,1.0", "0.01,", "0.02,3.0"], "bad.csv:3: malformed row '0.01,'"),
            (["0.00,1.0", "0.01,2.0e", "0.02,3.0"], "bad.csv:3: malformed row '0.01,2.0e'"),
            (["0.00,1.0", "0.01,2.0 # note"], "bad.csv:3: malformed row '0.01,2.0 # note'"),
            (["0.00,1.0", "0.01,1e999"], "bad.csv:3: non-finite value in row '0.01,1e999'"),
        ],
    )
    def test_rows_the_loop_rejects_raise_its_error(self, tmp_path, rows, message):
        text = "\n".join([TRACE_HEADER, *rows]) + "\n"
        assert _plain_rows(text.splitlines()[1:]) is None
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError) as raised:
            read_trace(path)
        assert str(raised.value) == f"{path.parent}/{message}"

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(
        st.text(alphabet="0123456789+-.eE,", max_size=12),
        st.tuples(st.floats(), st.floats()).map(lambda tv: f"{tv[0]!r},{tv[1]:.12e}"),
    ), max_size=6))
    def test_plain_rows_are_the_loop_rows_or_none(self, rows):
        # Any line of number characters and commas: the one-pass parse either
        # declines it or gives the loop's values and line numbers.
        text = "\n".join([TRACE_HEADER, *rows]) + "\n"
        got = _plain_rows(text.splitlines()[1:])
        expected = line_loop_rows(text)
        if got is None:
            return
        assert expected is not None
        assert [float_bits(a) for a in got[:2]] == [float_bits(a) for a in expected[:2]]
        assert got[2] == expected[2]

    @pytest.mark.parametrize("row", ["0.01, 2.0", "0.01,2_0", " 0.01,2.0", "0.01,2.0\t"])
    def test_rows_only_the_loop_reads_give_its_values(self, tmp_path, row):
        text = "\n".join([TRACE_HEADER, "0.00,1.0", row, "0.02,3.0"]) + "\n"
        assert _plain_rows(text.splitlines()[1:]) is None
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert float_bits(read_trace(path).samples) == float_bits(line_loop_rows(text)[1])

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

    @pytest.mark.parametrize("frames", [1, 300, 549])
    def test_read_gives_complex64_holding_the_file_floats(self, tmp_path, frames):
        # 300 and 549 frames end in a part block.
        trace = synthesize_trace(RespirationModel(0.3, (0.5,)), None, 0.0, 100.0, 6.0, 0)
        cube = simulate_frames(
            RadarConfig(), TargetScene((Target(1.0, trace),), noise_floor=0.01),
            frames / 100.0, 2,
        )
        path = tmp_path / "cube.bin"
        write_cube(cube, path)
        restored = read_cube(path)
        assert restored.iq.dtype == np.complex64
        assert restored.iq.shape == (frames, 256)
        payload = path.read_bytes().split(b"end-header\n", 1)[1]
        assert restored.iq.tobytes() == payload

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
            ({"cut": 1}, r"payload holds 23\.75 floats, expected 24"),
        ],
    )
    def test_unusable_cube_is_input_error(self, tmp_path, fields, message):
        path = cube_file(tmp_path / "bad.bin", **fields)
        with pytest.raises(InputError, match=f"bad.bin: .*{message}"):
            read_cube(path)

    def test_first_bad_frame_named_when_two_blocks_hold_one(self, tmp_path):
        payload_at = (300 * 4 + 1, 700 * 4 + 2)  # frame 300, imaginary; frame 700, real
        path = cube_file(tmp_path / "bad.bin", frames=1000, samples=2, nan_at=list(payload_at))
        with pytest.raises(InputError, match="bad.bin: frame 300 holds a non-finite"):
            read_cube(path)

    @pytest.fixture
    def cube_3000(self):
        rng = np.random.default_rng(4)
        iq = rng.normal(size=(3000, 256)) + 1j * rng.normal(size=(3000, 256))
        return RadarCube(iq, 100.0, 0.05)

    def test_write_peak_memory_is_a_few_blocks(self, tmp_path, cube_3000):
        peak = traced_peak(lambda: write_cube(cube_3000, tmp_path / "cube.bin"))
        # Measured 0.043 cubes at 3000 frames: one block cast to float32. A
        # whole-cube cast would be half a cube.
        assert peak < 0.1 * cube_3000.iq.nbytes

    def test_read_peak_memory_near_one_cube(self, tmp_path, cube_3000):
        write_cube(cube_3000, tmp_path / "cube.bin")
        peak = traced_peak(lambda: read_cube(tmp_path / "cube.bin"))
        # Measured 1.022 complex64 cubes at 3000 frames: the cube read and one
        # block's finiteness mask. A complex128 cube, or a buffer holding the
        # whole payload beside the cube, would add one more.
        assert peak < 1.1 * cube_3000.iq.size * np.dtype(np.complex64).itemsize

    def test_writes_are_deterministic(self, tmp_path):
        trace = synthesize_trace(RespirationModel(0.3, (0.5,)), None, 0.0, 100.0, 2.0, 0)
        scene = TargetScene((Target(1.0, trace),), noise_floor=0.01)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cube(simulate_frames(RadarConfig(), scene, 2.0, 3), a)
        write_cube(simulate_frames(RadarConfig(), scene, 2.0, 3), b)
        assert a.read_bytes() == b.read_bytes()


def labelled_window():
    """A degenerate window at 8 s: a respiration mode and a heartbeat merged
    from modes 1 and 4 of its unmerged decomposition."""
    ms = ModeSet(np.zeros((2, 4)), np.array([2.17, 2.17]), np.zeros(4), 16.0, 100.0,
                 True, 1, merged_from=((0,), (1, 4)))
    search = AlphaSearch(3162.0, ms, False, [(3162.0, 0.3, 0.0)], np.zeros(5))
    labels = [ModeLabel(0, "respiration", 2.175, 1.0, 4.0),
              ModeLabel(1, "heartbeat", 2.175, 1.0, 1.5)]
    return WindowResult(8.0, None, "degenerate", search, labels)


class TestModeDump:
    def test_rows_name_the_modes_they_merge(self, tmp_path):
        path = tmp_path / "modes.csv"
        write_mode_dump(
            HrSeries([], {1: labelled_window(), 0: WindowResult(0.0, None)}), path
        )
        assert MODES_HEADER.endswith(",energy,merged_from")
        assert path.read_text().splitlines() == [
            MODES_HEADER,
            "8.000,0,2.1700,2.500000e-01,respiration,2.1750,4.000000e+00,0",
            "8.000,1,2.1700,9.375000e-02,heartbeat,2.1750,1.500000e+00,1+4",
        ]
