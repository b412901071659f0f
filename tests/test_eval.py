import math

import numpy as np
import pytest

from hrrkit import evaluate
from hrrkit.evaluate import (
    Scenario,
    ScoreRow,
    ScoreTable,
    Subject,
    default_scenarios,
    run_scenario,
    sweep,
)
from hrrkit.hr_estimate import FLAG_CARRY
from hrrkit.signal_model import (
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    RespirationModel,
    WaveformShape,
)


def quick_scenario(name="quick", seed_base=500, **kw):
    resp = RespirationModel(0.3, (1.0,))
    heart = HeartbeatModel(ConstantRate(120.0), 0.15, WaveformShape.SINUSOID)
    defaults = dict(
        subjects=(Subject(resp, heart),),
        repetitions=3,
        seed_base=seed_base,
    )
    defaults.update(kw)
    return Scenario(name, **defaults)


class TestScenario:
    def test_minimum_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            quick_scenario(repetitions=2)

    def test_zero_noise_no_harmonics_floor(self):
        rows = run_scenario(quick_scenario())
        values = [r.delta_hr_bpm for r in rows]
        assert all(r.status == "ok" for r in rows)
        assert np.mean(values) <= 1.0

    def test_clean_constant_with_harmonics(self):
        scenario = quick_scenario(
            "clean_full",
            seed_base=520,
            subjects=(
                Subject(
                    RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04)),
                    HeartbeatModel(ConstantRate(130.0), 0.15, WaveformShape.SINUSOID),
                ),
            ),
        )
        rows = run_scenario(scenario)
        assert all(r.status == "ok" for r in rows)
        assert np.mean([r.delta_hr_bpm for r in rows]) <= 2.0

    def test_recovery_scenario_hits_error_target(self):
        scenario = quick_scenario(
            "recovery",
            seed_base=540,
            snr_db=15.0,
            subjects=(
                Subject(
                    RespirationModel(0.35, (1.0, 0.25, 0.1, 0.04)),
                    HeartbeatModel(
                        ExponentialRecovery(152.0, 120.0, 30.0),
                        0.15,
                        WaveformShape.SINUSOID,
                    ),
                ),
            ),
        )
        rows = run_scenario(scenario)
        assert all(r.status == "ok" for r in rows)
        assert np.mean([r.delta_hr_bpm for r in rows]) <= 3.5

    def test_radar_path_scenario(self, tmp_path):
        scenario = quick_scenario(
            "radar", seed_base=560, snr_db=25.0, use_radar=True,
        )
        rows = run_scenario(scenario, archive_dir=tmp_path)
        assert all(r.status == "ok" for r in rows)
        assert np.mean([r.delta_hr_bpm for r in rows]) <= 2.0
        assert (tmp_path / "radar" / "rep_0" / "trace.csv").exists()

    def test_rows_score_max_error_and_hrr60_error(self, monkeypatch):
        # As perfbench's hr_accuracy defines them.
        estimates = []
        estimate = evaluate.estimate_trace

        def recording(trace, cfg):
            estimates.append((trace, *estimate(trace, cfg)))
            return estimates[-1][1:]

        monkeypatch.setattr(evaluate, "estimate_trace", recording)
        rows = run_scenario(quick_scenario(seed_base=580, snr_db=15.0))
        assert len(estimates) == len(rows) == 3
        for row, (trace, series, report) in zip(rows, estimates):
            truth = trace.ground_truth.heartbeat.rate_trajectory
            err = np.abs(series.hr_bpm - truth(series.times))
            t_first = next(p.time for p in series.points if p.flag != FLAG_CARRY)
            assert row.delta_hr_bpm == pytest.approx(np.mean(err), rel=1e-12)
            assert row.max_err_bpm == np.max(err)
            assert row.hrr60_err_bpm == abs(report.hrr_60 - (truth(t_first) - truth(60.0)))

    def test_archive_layout(self, tmp_path):
        rows = run_scenario(quick_scenario(), archive_dir=tmp_path)
        for rep in range(3):
            d = tmp_path / "quick" / f"rep_{rep}"
            for name in ("trace.csv", "trace.meta", "hr.csv", "report.txt",
                         "report.json", "modes.csv"):
                assert (d / name).exists(), name
        assert all(r.status == "ok" for r in rows)


class TestScoreTable:
    def test_aggregates_match_recomputation(self):
        table = ScoreTable(
            rows=[
                ScoreRow("s", 0, 1, 2.0, "ok"),
                ScoreRow("s", 1, 2, 4.0, "ok"),
                ScoreRow("s", 2, 3, 6.0, "ok"),
            ]
        )
        mean, std, n = table.stats("s")
        assert mean == pytest.approx(4.0)
        assert std == pytest.approx(float(np.std([2.0, 4.0, 6.0], ddof=1)))
        assert n == 3

    def test_failed_cell_excluded_from_stats_but_recorded(self):
        table = ScoreTable(
            rows=[
                ScoreRow("s", 0, 1, 2.0, "ok"),
                ScoreRow("s", 1, 2, math.nan, "failed:ValueError"),
                ScoreRow("s", 2, 3, 4.0, "ok"),
            ]
        )
        mean, _, n = table.stats("s")
        assert mean == pytest.approx(3.0) and n == 2
        assert "failed:ValueError" in table.to_csv()

    def test_max_error_and_hrr60_error_next_to_mae(self):
        table = ScoreTable(
            rows=[
                ScoreRow("s", 0, 1, 2.0, "ok", 5.0, 1.0),
                ScoreRow("s", 1, 2, math.nan, "failed:ValueError"),
                ScoreRow("s", 2, 3, 4.0, "ok", 9.0, 2.0),
            ]
        )
        assert table.to_csv().splitlines() == [
            "scenario,rep,seed,delta_hr_bpm,max_err_bpm,hrr60_err_bpm,status",
            "s,0,1,2.000000,5.000000,1.000000,ok",
            "s,1,2,,,,failed:ValueError",
            "s,2,3,4.000000,9.000000,2.000000,ok",
        ]
        # The worst max error and the mean hrr60 error of the runs that ran.
        assert table.summary_csv().splitlines() == [
            "scenario,n_ok,mean_delta_hr_bpm,std_delta_hr_bpm,max_err_bpm,mean_hrr60_err_bpm",
            f"s,2,3.000000,{math.sqrt(2.0):.6f},9.000000,1.500000",
        ]

    def test_empty_sweep(self):
        table = sweep([])
        assert table.rows == []
        assert table.to_csv().strip() == (
            "scenario,rep,seed,delta_hr_bpm,max_err_bpm,hrr60_err_bpm,status"
        )

    def test_sweep_counts_and_order(self, tmp_path):
        table = sweep(
            [quick_scenario("a", seed_base=600), quick_scenario("b", seed_base=700)],
            archive_dir=tmp_path,
        )
        assert len(table.rows) == 6
        assert table.scenario_names() == ["a", "b"]
        assert len(list((tmp_path / "a").iterdir())) == 3
        assert len(list((tmp_path / "b").iterdir())) == 3


class TestReproducibility:
    def test_bit_identical_rerun(self, tmp_path):
        scenario = quick_scenario(seed_base=800, snr_db=18.0)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        table_a = ScoreTable(rows=run_scenario(scenario, archive_dir=dir_a))
        table_b = ScoreTable(rows=run_scenario(scenario, archive_dir=dir_b))
        assert table_a.to_csv() == table_b.to_csv()
        files_a = sorted(p for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p for p in dir_b.rglob("*") if p.is_file())
        assert [p.relative_to(dir_a) for p in files_a] == [
            p.relative_to(dir_b) for p in files_b
        ]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name


class TestDefaultSuite:
    def test_includes_coincidence_scenario(self):
        names = [s.name for s in default_scenarios()]
        assert "harmonic_coincidence" in names
        assert "recovery_snr15" in names
