"""Compare a git revision with the working tree on the evaluation suite, seed by seed.

    python3 tools/seed_table.py --base HEAD --reps 20 --tag spectra_warm

The revision is exported with ``git archive`` into a temporary directory, as
``tools/bench_pairs.py`` does. Each side runs ``default_scenarios(repetitions=N)``
from its own tree's package, both sides at once, one BLAS thread each.
``SEEDS_<tag>.json`` records, per scenario and side, every seed's mean
absolute HR error, max error, hrr60 error and share of ``gates_relaxed``
windows, the mean and worst of each, and the decompositions and ADMM sweeps
the scenario took; and per scenario how many seeds the change made better, worse or left equal
in MAE. A seed whose run failed on one side only counts as worse for that
side. ``--scenario`` (repeatable) runs a subset.

The errors are the ones ``evaluate.run_scenario`` scores each repetition
with, its ``ScoreRow`` fields ``delta_hr_bpm``, ``max_err_bpm`` and
``hrr60_err_bpm``: the max error is the largest |HR - truth| over the
series, and the hrr60 error is |reported hrr_60 - true HRR|, the true HRR
being truth(first non-carried point) - truth(60 s). On a scene of several
subjects a seed's max error is the largest of theirs and its hrr60 error
their mean, as its MAE is. The relaxed share counts all of their windows.
A revision whose ``ScoreRow`` lacks the two error fields (any before
45aaf9d) cannot be compared: its side stops with one message saying so.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, export_tree, git

# Per-seed lists each side reports, MAE first; SEEDS_<tag>.json gives each a
# mean and a worst.
METRICS = ("mae_bpm", "max_err_bpm", "hrr60_err_bpm", "gates_relaxed_share")

# Runs in each tree with that tree's package first on the path. It takes
# the errors from run_scenario's rows, counts decompositions and their ADMM
# sweeps by rebinding vmd_decompose where select_alpha looks it up, counts
# each estimate's relaxed windows by rebinding estimate_trace where
# run_scenario looks it up, and prints one JSON object per scenario.
# run_scenario seeds subject si of a repetition with seed + 1000 * si, which
# is how the estimates are matched to their repetition.
CHILD = f"METRICS = {METRICS!r}\n" + r"""
import dataclasses, json, math, sys
from hrrkit import evaluate, vmd

if not {"max_err_bpm", "hrr60_err_bpm"} <= {f.name for f in dataclasses.fields(evaluate.ScoreRow)}:
    sys.exit("this tree's evaluate.ScoreRow has no max_err_bpm and hrr60_err_bpm "
             "to read; compare with a revision that scores them (45aaf9d or later)")

reps, names = int(sys.argv[1]), set(sys.argv[2:])
decompose, estimate = vmd.vmd_decompose, evaluate.estimate_trace
sweeps, decomps, relaxed = 0, 0, {}

def counting(*args, **kwargs):
    global sweeps, decomps
    ms = decompose(*args, **kwargs)
    sweeps += ms.n_iters
    decomps += 1
    return ms

def counting_relaxed(trace, *args, **kwargs):
    series, report = estimate(trace, *args, **kwargs)
    statuses = [w.status for w in series.window_results.values()]
    relaxed[trace.ground_truth.seed] = (statuses.count("gates_relaxed"), len(statuses))
    return series, report

vmd.vmd_decompose, evaluate.estimate_trace = counting, counting_relaxed
for scenario in evaluate.default_scenarios(repetitions=reps):
    if names and scenario.name not in names:
        continue
    sweeps, decomps, relaxed = 0, 0, {}
    rows = evaluate.run_scenario(scenario)
    columns = []
    for r in rows:
        if math.isnan(r.delta_hr_bpm):
            columns.append([None] * len(METRICS))
            continue
        counts, windows = zip(
            *(relaxed[r.seed + 1000 * si] for si in range(len(scenario.subjects))))
        columns.append([r.delta_hr_bpm, r.max_err_bpm, r.hrr60_err_bpm,
                        sum(counts) / sum(windows)])
    print(json.dumps({
        "scenario": scenario.name,
        "seeds": [r.seed for r in rows],
        **{m: list(v) for m, v in zip(METRICS, zip(*columns))},
        "decompositions": decomps,
        "admm_sweeps": sweeps,
    }), flush=True)
"""


def start_side(tree: Path, reps: int, scenarios: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", CHILD, str(reps), *scenarios],
                            cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_side(proc: subprocess.Popen, side: str) -> dict:
    """The side's results by scenario name."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{side} side exited {proc.returncode}:\n{err}")
    return {row["scenario"]: row for row in map(json.loads, out.splitlines())}


def side_stats(row: dict) -> dict:
    """Mean and worst of each metric over the seeds that ran, and the failures."""
    stats = {}
    for metric in METRICS:
        ok = [v for v in row[metric] if v is not None]
        stats[f"mean_{metric}"] = sum(ok) / len(ok) if ok else math.nan
        stats[f"worst_{metric}"] = max(ok) if ok else math.nan
    stats["failed"] = row["mae_bpm"].count(None)
    return stats


def compare(base: list, change: list) -> dict:
    """Seeds the change made better, worse or left equal (None is a failed run)."""
    counts = {"better": 0, "worse": 0, "equal": 0}
    for b, c in zip(base, change):
        if b == c:
            counts["equal"] += 1
        elif c is None or (b is not None and c > b):
            counts["worse"] += 1
        else:
            counts["better"] += 1
    return counts


def table(results: dict) -> dict:
    """Per scenario: each side's per-seed metrics, their means and worsts, the
    decompositions and the sweeps, and the seed counts."""
    scenarios = {}
    for name, base in results["base"].items():
        change = results["change"][name]
        if base["seeds"] != change["seeds"]:
            raise RuntimeError(f"{name}: the sides ran different seeds")
        scenarios[name] = {
            "seeds": base["seeds"],
            **{side: {**{m: results[side][name][m] for m in METRICS},
                      **side_stats(results[side][name]),
                      **{k: results[side][name][k] for k in ("decompositions", "admm_sweeps")}}
               for side in SIDES},
            **compare(base["mae_bpm"], change["mae_bpm"]),
        }
    return scenarios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--reps", type=int, default=20, help="seeds per scenario (>= 3)")
    parser.add_argument("--scenario", action="append", default=[],
                        help="run only this scenario (repeatable)")
    parser.add_argument("--tag", default="seeds", help="writes SEEDS_<tag>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.reps < 3:
        parser.error("--reps must be >= 3")

    with tempfile.TemporaryDirectory(prefix="seeds-base-") as tmp:
        base_tree = Path(tmp)
        commit = export_tree(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        procs = {side: start_side(trees[side], args.reps, args.scenario) for side in SIDES}
        try:
            results = {side: finish_side(procs[side], side) for side in SIDES}
        except RuntimeError as exc:
            for proc in procs.values():
                proc.kill()
                proc.wait()
            parser.exit(1, f"seed_table: {exc}")

    report = {
        "reps": args.reps,
        "base": {"rev": args.base, "commit": commit},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "scenarios": table(results),
    }
    out = args.out_dir / f"SEEDS_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, s in report["scenarios"].items():
        b, c = s["base"], s["change"]
        print(f"{name}: mean {b['mean_mae_bpm']:.3f} -> {c['mean_mae_bpm']:.3f}, "
              f"worst {b['worst_mae_bpm']:.3f} -> {c['worst_mae_bpm']:.3f} bpm; "
              f"max error {b['worst_max_err_bpm']:.2f} -> {c['worst_max_err_bpm']:.2f}, "
              f"hrr60 error {b['mean_hrr60_err_bpm']:.3f} -> {c['mean_hrr60_err_bpm']:.3f} bpm, "
              f"relaxed {b['mean_gates_relaxed_share']:.0%} -> "
              f"{c['mean_gates_relaxed_share']:.0%}; "
              f"better/worse/equal {s['better']}/{s['worse']}/{s['equal']}; "
              f"decompositions {b['decompositions']} -> {c['decompositions']}, "
              f"sweeps {b['admm_sweeps']} -> {c['admm_sweeps']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
