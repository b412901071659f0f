import importlib.util
import math
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))  # seed_table imports bench_pairs from beside it
_SPEC = importlib.util.spec_from_file_location("seed_table", _TOOLS / "seed_table.py")
seed_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_table)


def side(mae, sweeps=100, seeds=(120, 121, 122), max_err=None, hrr60_err=None, relaxed=None,
         decompositions=10):
    """One side's child output; the other metrics default to multiples of the MAE."""
    def scaled(k):
        return [None if v is None else k * v for v in mae]

    return {"seeds": list(seeds), "mae_bpm": mae,
            "max_err_bpm": max_err or scaled(4.0), "hrr60_err_bpm": hrr60_err or scaled(2.0),
            "gates_relaxed_share": relaxed or scaled(0.1), "decompositions": decompositions,
            "admm_sweeps": sweeps}


class TestCompare:
    def test_counts_each_seed_once(self):
        counts = seed_table.compare([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.9])
        assert counts == {"better": 2, "worse": 1, "equal": 1}

    def test_a_failed_run_is_worse_for_its_side(self):
        counts = seed_table.compare([None, 1.0, None], [1.0, None, None])
        assert counts == {"better": 1, "worse": 1, "equal": 1}


class TestTable:
    def test_stats_per_side_and_seed_counts(self):
        results = {
            "base": {"recovery_snr15": side([1.2, 1.5, 0.9], sweeps=300, decompositions=12)},
            "change": {"recovery_snr15": side([1.1, 1.6, 0.9], sweeps=200, decompositions=14)},
        }
        row = seed_table.table(results)["recovery_snr15"]
        assert row["seeds"] == [120, 121, 122]
        assert row["base"]["mean_mae_bpm"] == pytest.approx(1.2)
        assert row["base"]["worst_mae_bpm"] == 1.5
        assert row["change"]["worst_mae_bpm"] == 1.6
        assert (row["base"]["admm_sweeps"], row["change"]["admm_sweeps"]) == (300, 200)
        assert (row["base"]["decompositions"], row["change"]["decompositions"]) == (12, 14)
        assert (row["better"], row["worse"], row["equal"]) == (1, 1, 1)

    def test_max_error_hrr60_error_and_relaxed_share_per_seed_and_mean(self):
        results = {
            "base": {"s": side([1.0, 1.2, 0.9], max_err=[9.2, 3.0, 2.0],
                               hrr60_err=[2.5, 0.5, 0.3], relaxed=[0.5, 0.25, 0.0])},
            "change": {"s": side([1.0, 1.1, 0.9], max_err=[2.9, 2.5, 2.0],
                                 hrr60_err=[0.1, 0.2, 0.3], relaxed=[0.0, 0.25, 0.0])},
        }
        row = seed_table.table(results)["s"]
        base, change = row["base"], row["change"]
        assert base["max_err_bpm"] == [9.2, 3.0, 2.0]
        assert change["hrr60_err_bpm"] == [0.1, 0.2, 0.3]
        assert (base["worst_max_err_bpm"], change["worst_max_err_bpm"]) == (9.2, 2.9)
        assert base["mean_hrr60_err_bpm"] == pytest.approx(1.1)
        assert change["mean_hrr60_err_bpm"] == pytest.approx(0.2)
        assert base["mean_gates_relaxed_share"] == pytest.approx(0.25)
        assert change["gates_relaxed_share"] == [0.0, 0.25, 0.0]
        # Seeds are still counted better or worse on MAE alone.
        assert (row["better"], row["worse"], row["equal"]) == (1, 0, 2)

    def test_failed_seeds_are_left_out_of_the_stats(self):
        results = {"base": {"s": side([1.0, None, 3.0])}, "change": {"s": side([None] * 3)}}
        row = seed_table.table(results)["s"]
        assert (row["base"]["mean_mae_bpm"], row["base"]["failed"]) == (2.0, 1)
        assert row["base"]["mean_hrr60_err_bpm"] == 4.0
        assert math.isnan(row["change"]["mean_mae_bpm"]) and row["change"]["failed"] == 3
        assert math.isnan(row["change"]["worst_max_err_bpm"])

    def test_sides_on_different_seeds_raise(self):
        results = {"base": {"s": side([1.0] * 3)},
                   "change": {"s": side([1.0] * 3, seeds=(1, 2, 3))}}
        with pytest.raises(RuntimeError, match="different seeds"):
            seed_table.table(results)


def test_child_scores_every_seed_of_a_scenario():
    proc = seed_table.start_side(seed_table.ROOT, 3, ["zero_noise_no_harmonics"])
    row = seed_table.finish_side(proc, "change")["zero_noise_no_harmonics"]
    assert row["seeds"] == [110, 111, 112]
    for metric in seed_table.METRICS:
        assert len(row[metric]) == 3 and None not in row[metric]
    assert all(m <= e for m, e in zip(row["mae_bpm"], row["max_err_bpm"]))
    assert all(0.0 <= share <= 1.0 for share in row["gates_relaxed_share"])
    assert 0 < row["decompositions"] < row["admm_sweeps"]


def test_child_rejects_a_tree_without_the_score_fields(tmp_path):
    # A package whose ScoreRow predates max_err_bpm and hrr60_err_bpm.
    package = tmp_path / "src" / "hrrkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "vmd.py").write_text("vmd_decompose = None\n")
    (package / "evaluate.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass ScoreRow:\n    scenario: str\n    delta_hr_bpm: float\n\n"
        "estimate_trace = None\n"
    )
    proc = seed_table.start_side(tmp_path, 3, [])
    with pytest.raises(RuntimeError,
                       match="base side exited 1:\n.*no max_err_bpm and hrr60_err_bpm"):
        seed_table.finish_side(proc, "base")
