"""Compare a git revision with the working tree on the evaluation suite, seed by seed.

    python3 tools/seed_table.py --base HEAD --reps 20 --tag spectra_warm

The revision is exported with ``git archive`` into a temporary directory, as
``tools/bench_pairs.py`` does. Each side runs ``default_scenarios(repetitions=N)``
from its own tree's package, both sides at once, one BLAS thread each.
``SEEDS_<tag>.json`` records, per scenario and side, every seed's mean
absolute HR error, the mean and worst of them, and the ADMM sweeps the
scenario took; and per scenario how many seeds the change made better,
worse or left equal. A seed whose run failed on one side only counts as
worse for that side. ``--scenario`` (repeatable) runs a subset.
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

# Runs in each tree with that tree's package first on the path. It counts
# ADMM sweeps by rebinding vmd_decompose where select_alpha looks it up, and
# prints one JSON object per scenario.
CHILD = r"""
import json, math, sys
from hrrkit import evaluate, vmd

reps, names = int(sys.argv[1]), set(sys.argv[2:])
decompose = vmd.vmd_decompose
sweeps = 0

def counting(*args, **kwargs):
    global sweeps
    ms = decompose(*args, **kwargs)
    sweeps += ms.n_iters
    return ms

vmd.vmd_decompose = counting
for scenario in evaluate.default_scenarios(repetitions=reps):
    if names and scenario.name not in names:
        continue
    sweeps = 0
    rows = evaluate.run_scenario(scenario)
    print(json.dumps({
        "scenario": scenario.name,
        "seeds": [r.seed for r in rows],
        "mae_bpm": [None if math.isnan(r.delta_hr_bpm) else r.delta_hr_bpm for r in rows],
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


def side_stats(mae: list) -> dict:
    ok = [v for v in mae if v is not None]
    return {
        "mean_mae_bpm": sum(ok) / len(ok) if ok else math.nan,
        "worst_mae_bpm": max(ok) if ok else math.nan,
        "failed": len(mae) - len(ok),
    }


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
    """Per scenario: each side's per-seed MAE, mean, worst and sweeps, and the seed counts."""
    scenarios = {}
    for name, base in results["base"].items():
        change = results["change"][name]
        if base["seeds"] != change["seeds"]:
            raise RuntimeError(f"{name}: the sides ran different seeds")
        scenarios[name] = {
            "seeds": base["seeds"],
            **{side: {"mae_bpm": results[side][name]["mae_bpm"],
                      **side_stats(results[side][name]["mae_bpm"]),
                      "admm_sweeps": results[side][name]["admm_sweeps"]}
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
        results = {side: finish_side(procs[side], side) for side in SIDES}

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
              f"better/worse/equal {s['better']}/{s['worse']}/{s['equal']}; "
              f"sweeps {b['admm_sweeps']} -> {c['admm_sweeps']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
