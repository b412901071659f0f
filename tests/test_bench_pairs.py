import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

OP_S = {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "signal_s_per_s", "unit": "s/s", "better": "higher", "bound": 0.25}
# Base times 1.00 to 1.09 s: median 1.045 s, quartiles 1.0225 and 1.0675 s.
BASE = [1.0 + 0.01 * p for p in range(10)]


def make_runs(change, base=BASE, name="op_s", incorrect=()):
    """Alternating base/change runs; ``incorrect`` holds (pair, side) pairs."""
    runs = []
    for p, (b, c) in enumerate(zip(base, change)):
        sides = [("base", b), ("change", c)] if p % 2 == 0 else [("change", c), ("base", b)]
        for position, (side, value) in enumerate(sides):
            runs.append({"pair": p, "seed": 100 + p, "side": side, "position": position,
                         "correct": (p, side) not in incorrect, "metrics": {name: value}})
    return runs


def faster(wins, by=0.2, ties=0):
    """Change times: ``wins`` pairs faster by ``by``, ``ties`` equal, the rest slower."""
    return ([b - by for b in BASE[:wins]] + BASE[wins:wins + ties]
            + [b + 0.01 for b in BASE[wins + ties:]])


class TestSummarize:
    def test_nine_wins_beyond_base_spread_is_a_gain(self):
        s = bench_pairs.summarize(make_runs(faster(9)), [OP_S])["op_s"]
        assert (s["wins"], s["losses"], s["ties"]) == (9, 1, 0)
        assert s["base"]["median"] - s["change"]["median"] > s["base"]["q3"] - s["base"]["q1"]
        assert s["gain"]

    def test_each_side_reports_its_minimum(self):
        change = faster(9)
        s = bench_pairs.summarize(make_runs(change), [OP_S])["op_s"]
        assert s["base"] == pytest.approx({"median": 1.045, "q1": 1.0225, "q3": 1.0675,
                                           "min": 1.0})
        assert s["change"]["min"] == min(change) == 0.8
        assert bench_pairs.spread([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "min": 0.5}

    def test_eight_wins_is_no_gain(self):
        s = bench_pairs.summarize(make_runs(faster(8)), [OP_S])["op_s"]
        assert (s["wins"], s["losses"]) == (8, 2)
        assert not s["gain"]

    def test_ten_wins_inside_base_spread_is_no_gain(self):
        s = bench_pairs.summarize(make_runs(faster(10, by=0.001)), [OP_S])["op_s"]
        assert s["wins"] == 10
        assert not s["gain"]

    def test_ties_count_for_neither_side(self):
        s = bench_pairs.summarize(make_runs(faster(9, ties=1)), [OP_S])["op_s"]
        assert (s["wins"], s["losses"], s["ties"]) == (9, 0, 1)
        assert s["gain"]
        s = bench_pairs.summarize(make_runs(faster(8, ties=2)), [OP_S])["op_s"]
        assert (s["wins"], s["losses"], s["ties"]) == (8, 0, 2)
        assert not s["gain"]

    def test_higher_is_better_metric(self):
        base = [60.0 + p for p in range(10)]
        higher = [b + 20.0 for b in base[:9]] + [base[9] - 1.0]
        s = bench_pairs.summarize(make_runs(higher, base, "signal_s_per_s"), [RATE])
        assert (s["signal_s_per_s"]["wins"], s["signal_s_per_s"]["losses"]) == (9, 1)
        assert s["signal_s_per_s"]["gain"]
        lower = [b - 20.0 for b in base]
        s = bench_pairs.summarize(make_runs(lower, base, "signal_s_per_s"), [RATE])
        assert s["signal_s_per_s"]["losses"] == 10
        assert not s["signal_s_per_s"]["gain"]

    @pytest.mark.parametrize("side", ["base", "change"])
    def test_one_incorrect_run_voids_every_gain(self, side):
        runs = make_runs(faster(10), incorrect={(3, side)})
        for r in runs:
            r["metrics"]["signal_s_per_s"] = 66.0 / r["metrics"]["op_s"]
        summary = bench_pairs.summarize(runs, [OP_S, RATE])
        assert summary["op_s"]["wins"] == summary["signal_s_per_s"]["wins"] == 10
        assert not summary["op_s"]["gain"]
        assert not summary["signal_s_per_s"]["gain"]


class TestRegression:
    def test_median_worse_beyond_the_bound_is_a_regression(self):
        s = bench_pairs.summarize(make_runs([b * 1.3 for b in BASE]), [OP_S])["op_s"]
        assert s["losses"] == 10
        assert s["regressed"] and not s["gain"]
        s = bench_pairs.summarize(make_runs([b * 1.2 for b in BASE]), [OP_S])["op_s"]
        assert s["losses"] == 10
        assert not s["regressed"]

    def test_improvement_is_no_regression(self):
        s = bench_pairs.summarize(make_runs(faster(10)), [OP_S])["op_s"]
        assert s["gain"] and not s["regressed"] and not s["unresolved"]

    def test_higher_is_better_regression(self):
        base = [60.0 + p for p in range(10)]   # median 64.5
        s = bench_pairs.summarize(make_runs([b * 0.7 for b in base], base, "signal_s_per_s"),
                                  [RATE])["signal_s_per_s"]
        assert s["regressed"]
        s = bench_pairs.summarize(make_runs([b * 0.8 for b in base], base, "signal_s_per_s"),
                                  [RATE])["signal_s_per_s"]
        assert not s["regressed"]

    def test_setup_step_between_two_levels_is_a_regression(self):
        # A setup time that reads one of two levels 50 ms apart: the base at
        # the lower level, the change mostly at the higher one.
        setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        base = [0.215] * 10
        change = [0.265] * 3 + [0.316] * 7
        s = bench_pairs.summarize(make_runs(change, base, "setup_s"), [setup])["setup_s"]
        assert s["regressed"] and not s["unresolved"]

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        # Base 0.5 to 1.4 s: median 0.95 s, quartiles 0.725 and 1.175 s, an
        # interquartile range of 47% of the median.
        wide = [0.5 + 0.1 * p for p in range(10)]
        s = bench_pairs.summarize(make_runs(wide, wide), [OP_S])["op_s"]
        assert s["unresolved"] and not s["regressed"]
        assert not bench_pairs.summarize(make_runs(BASE), [OP_S])["op_s"]["unresolved"]

    def test_change_beating_every_base_run_is_resolved(self):
        wide = [0.5 + 0.1 * p for p in range(10)]
        s = bench_pairs.summarize(make_runs([0.45] * 10, wide), [OP_S])["op_s"]
        assert not s["unresolved"]
        # One change run no faster than the base's fastest leaves it unresolved.
        s = bench_pairs.summarize(make_runs([0.45] * 9 + [0.5], wide), [OP_S])["op_s"]
        assert s["unresolved"]
        base = [60.0 + 6.0 * p for p in range(10)]
        s = bench_pairs.summarize(make_runs([200.0] * 10, base, "signal_s_per_s"),
                                  [RATE])["signal_s_per_s"]
        assert not s["unresolved"]


class TestMain:
    def run_main(self, monkeypatch, tmp_path, incorrect_seed=None, trace_correct=None,
                 incorrect_traced=None):
        """Run main on fake runs; ``trace_correct`` adds --trace, its passes
        correct or not. ``incorrect_traced``, as (whether it is the change's,
        its number k from 1 among that side's traced passes), names one more
        incorrect pass. A side's k-th traced pass reports k times its µs per
        sweep.
        """
        declared = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
        calls = []

        def run_once(tree, workload, seed, seconds, trace=0):
            change = tree == bench_pairs.ROOT
            calls.append((change, seed, seconds, trace))
            if trace:
                k = sum(1 for c in calls if c[0] == change and c[3])
                metrics = {m["name"]: 2.0 for m in declared["per_layer"]}
                metrics["vmd.us_per_sweep"] = (70.0 if change else 140.0) * k
                metrics["radar.simulate_us_per_frame"] = 21.0 if change else 38.0
                correct = trace_correct and (change, k) != incorrect_traced
                return {"correct": correct, "metrics": metrics}
            metrics = {m["name"]: 1.0 for m in declared["end_to_end"]}
            metrics["op_s"] = 0.8 if change else 1.0 + 0.001 * seed
            return {"correct": seed != incorrect_seed, "metrics": metrics}

        monkeypatch.setattr(bench_pairs, "export_tree", lambda rev, dest: "0" * 40)
        monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        argv = ["--base", "HEAD", "--pairs", "10", "--workload", "w",
                "--tag", "t", "--out-dir", str(tmp_path)]
        code = bench_pairs.main(argv + (["--trace"] if trace_correct is not None else []))
        self.calls = calls
        return code, json.loads((tmp_path / "BENCH_t.json").read_text())

    def test_correct_runs_exit_zero(self, monkeypatch, tmp_path):
        code, report = self.run_main(monkeypatch, tmp_path)
        assert code == 0
        assert report["incorrect_runs"] == []
        assert report["summary"]["op_s"]["gain"]
        assert not any(s["regressed"] or s["unresolved"] for s in report["summary"].values())
        assert report["traced"] == {}
        assert all(trace == 0 for *_, trace in self.calls)

    def test_incorrect_run_is_recorded_and_exits_nonzero(self, monkeypatch, tmp_path):
        code, report = self.run_main(monkeypatch, tmp_path, incorrect_seed=4)
        assert code == 1
        assert report["incorrect_runs"] == [{"pair": 3, "seed": 4, "side": "change"},
                                            {"pair": 3, "seed": 4, "side": "base"}]
        assert not any(s["gain"] for s in report["summary"].values())

    def test_trace_adds_three_alternating_passes_per_side(self, monkeypatch, tmp_path):
        code, report = self.run_main(monkeypatch, tmp_path, trace_correct=True)
        assert code == 0
        traced_calls = [c for c in self.calls if c[3] == 1]
        # Base first on passes 0 and 2, the change first on pass 1.
        assert [change for change, *_ in traced_calls] == [False, True, True, False, False, True]
        assert all(c[1:] == (1, 5.0, 1) for c in traced_calls)
        assert set(report["traced"]) == {"base", "change"}
        for side, sweep_us in (("base", 140.0), ("change", 70.0)):
            traced = report["traced"][side]
            assert (traced["seed"], traced["seconds"], traced["correct"]) == (1, 5.0, True)
            assert len(traced["passes"]) == bench_pairs.TRACED_PASSES == 3
            assert set(traced["metrics"]) == set(bench_pairs.TRACED_METRICS)
            # The median of the passes' figures: 1, 2 and 3 times the pass figure.
            assert [p["metrics"]["vmd.us_per_sweep"] for p in traced["passes"]] == [
                sweep_us, 2 * sweep_us, 3 * sweep_us]
            assert traced["metrics"]["vmd.us_per_sweep"] == 2 * sweep_us
            # The fastest pass, beside the median.
            assert set(traced["min"]) == set(bench_pairs.TRACED_METRICS)
            assert traced["min"]["vmd.us_per_sweep"] == sweep_us
        # The traced figures stay out of the untraced runs and their summary.
        assert len(report["runs"]) == 20
        assert "vmd.us_per_sweep" not in report["summary"]
        assert report["summary"]["op_s"]["gain"]

    def test_incorrect_traced_pass_voids_gains_and_exits_nonzero(self, monkeypatch, tmp_path):
        code, report = self.run_main(monkeypatch, tmp_path, trace_correct=False)
        assert code == 1
        assert report["incorrect_runs"] == [
            {"traced": True, "pass": i, "seed": 1, "side": side}
            for side in ("base", "change") for i in range(3)]
        assert not any(s["gain"] for s in report["summary"].values())

    def test_one_incorrect_traced_pass_is_named(self, monkeypatch, tmp_path):
        code, report = self.run_main(monkeypatch, tmp_path, trace_correct=True,
                                     incorrect_traced=(False, 2))
        assert code == 1
        assert report["incorrect_runs"] == [{"traced": True, "pass": 1, "seed": 1,
                                             "side": "base"}]
        assert not report["traced"]["base"]["correct"] and report["traced"]["change"]["correct"]
        assert not any(s["gain"] for s in report["summary"].values())

    def test_trace_records_radar_layer_figures(self, monkeypatch, tmp_path):
        code, report = self.run_main(monkeypatch, tmp_path, trace_correct=True)
        assert code == 0
        for side, frame_us in (("base", 38.0), ("change", 21.0)):
            metrics = report["traced"][side]["metrics"]
            assert metrics["radar.simulate_us_per_frame"] == frame_us
            assert metrics["radar.simulate_s"] == metrics["radar.track_us_per_frame"] == 2.0
            assert report["traced"][side]["min"]["radar.simulate_us_per_frame"] == frame_us
