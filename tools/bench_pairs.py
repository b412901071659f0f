"""Compare a git revision with the working tree on one benchmark workload.

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --seconds 25 \
        --workload radar_frontend --seed-start 61 --tag radar_track

The revision is exported with ``git archive`` into a temporary directory.
Each pair runs ``perfbench/run.py --trace 0`` once on that tree (the base)
and once on the working tree (the change), on the pair's own seed; which side
runs first alternates from pair to pair. ``BENCH_<tag>.json`` records every
run's end-to-end metrics, each side's median, quartiles and minimum per
metric, and per metric how many pairs the change won, lost and tied. A metric shows a
gain when the change wins at least nine pairs in ten and its median beats the
base's by more than the distance between the base's quartiles. It is
``regressed`` when the change's median is worse than the base's by more than
the metric's ``BENCHMARK.json`` bound, taken relative to the base's median,
and ``unresolved`` when the distance between the base's own quartiles is
wider than that bound, unless every change run beats every base run.

With ``--trace``, each side also runs ``TRACED_PASSES`` ``--trace 1`` passes of
``TRACED_SECONDS`` each on the first pair's seed, after the pairs; which side
goes first alternates from pass to pass. Their per-layer work and cost figures
(``TRACED_METRICS``: µs per ADMM sweep, sweeps, decompositions, unconverged
and relaxed-gate shares; the band-pass filter's seconds per operation; the
radar simulator's seconds per operation and µs per frame, and the tracker's
µs per frame) go under ``traced`` in the report, each pass under
``traced[side]["passes"]``, each figure's median over the passes under
``traced[side]["metrics"]`` and its minimum, the fastest pass's reading for a
cost, under ``traced[side]["min"]``, apart from the untraced runs, whose
times alone decide the gains. A workload that never reaches a layer records 0 for its
figures.

A run whose operations failed their output check, traced or not, is listed
under ``incorrect_runs``. Then no metric shows a gain, whatever its times,
and the tool exits 1 after writing the report.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
TRACED_METRICS = ("vmd.us_per_sweep", "vmd.admm_sweeps", "vmd.decompose_calls",
                  "vmd.unconverged_frac", "pipeline.gates_relaxed_frac",
                  "preprocess.bandpass_s", "radar.simulate_us_per_frame",
                  "radar.simulate_s", "radar.track_us_per_frame")
# One 1 s traced pass cannot resolve a 10% change in µs per ADMM sweep: three
# read 24.9 to 31.2 µs on unchanged VMD code. 5 s passes resolved a change
# that 1 s passes missed, though on a loaded 2-vCPU host three of them still
# spread by 11-27%.
TRACED_PASSES = 3
TRACED_SECONDS = 5.0


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export_tree(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run; its result is the last line of its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method; one value is its own quartiles) and minimum."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values)}


def over_passes(statistic, values: list):
    """``statistic`` of one figure over the traced passes; None if a pass lacks it."""
    return None if None in values else statistic(values)


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per metric: each side's spread, pair wins, whether the gain holds, and
    whether the change regressed beyond the metric's bound or the base spreads
    too widely for that bound to tell.

    No gain holds when any run, on either side, was incorrect.
    """
    all_correct = all(r["correct"] for r in runs)
    summary = {}
    pairs = sorted({r["pair"] for r in runs})
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        by_side = {side: {r["pair"]: r["metrics"][name] for r in runs if r["side"] == side}
                   for side in SIDES}
        stats = {side: spread([by_side[side][p] for p in pairs]) for side in SIDES}
        wins = losses = 0
        for p in pairs:
            base, change = by_side["base"][p], by_side["change"][p]
            if change != base:
                if (change < base) == lower:
                    wins += 1
                else:
                    losses += 1
        gap = stats["base"]["median"] - stats["change"]["median"]
        if not lower:
            gap = -gap
        base_iqr = stats["base"]["q3"] - stats["base"]["q1"]
        allowed = m["bound"] * abs(stats["base"]["median"])
        base_values, change_values = by_side["base"].values(), by_side["change"].values()
        if lower:
            separated = max(change_values) < min(base_values)
        else:
            separated = min(change_values) > max(base_values)
        summary[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], **stats,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "gain": all_correct and wins >= 0.9 * len(pairs) and gap > base_iqr,
            "regressed": -gap > allowed,
            "unresolved": base_iqr > allowed and not separated,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed-start", type=int, default=1,
                        help="pair p runs on seed seed_start + p")
    parser.add_argument("--tag", default="pairs", help="writes BENCH_<tag>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("--trace", action="store_true",
                        help=f"add {TRACED_PASSES} traced {TRACED_SECONDS:g} s passes per "
                             f"side for the per-layer figures")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        commit = export_tree(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for p in range(args.pairs):
            seed = args.seed_start + p
            sides = SIDES if p % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(sides):
                run = run_once(trees[side], args.workload, seed, args.seconds)
                runs.append({"pair": p, "seed": seed, "side": side, "position": position, **run})
                print(f"pair {p} seed {seed} {side}: op_s {run['metrics']['op_s']:.4f} "
                      f"correct {run['correct']}", flush=True)
        passes = {side: [] for side in SIDES}
        for i in range(TRACED_PASSES if args.trace else 0):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(trees[side], args.workload, args.seed_start, TRACED_SECONDS,
                               trace=1)
                passes[side].append({"correct": run["correct"],
                                     "metrics": {k: run["metrics"].get(k)
                                                 for k in TRACED_METRICS}})
                print(f"traced {side} pass {i}: {passes[side][-1]['metrics']} "
                      f"correct {run['correct']}", flush=True)
        traced = {}
        for side, side_passes in passes.items():
            if not side_passes:
                continue
            figures = {k: [p["metrics"][k] for p in side_passes] for k in TRACED_METRICS}
            traced[side] = {
                "seed": args.seed_start, "seconds": TRACED_SECONDS,
                "correct": all(p["correct"] for p in side_passes),
                "metrics": {k: over_passes(statistics.median, v) for k, v in figures.items()},
                "min": {k: over_passes(min, v) for k, v in figures.items()},
                "passes": side_passes,
            }

    summary = summarize(runs, declared)
    incorrect = [{k: r[k] for k in ("pair", "seed", "side")} for r in runs if not r["correct"]]
    incorrect += [{"traced": True, "pass": i, "seed": t["seed"], "side": side}
                  for side, t in traced.items()
                  for i, p in enumerate(t["passes"]) if not p["correct"]]
    if incorrect:
        for s in summary.values():
            s["gain"] = False

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "base": {"rev": args.base, "commit": commit},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "runs": runs,
        "traced": traced,
        "incorrect_runs": incorrect,
        "summary": summary,
    }
    out = args.out_dir / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, s in report["summary"].items():
        print(f"{name}: base {s['base']['median']:.6g} change {s['change']['median']:.6g} "
              f"{s['unit']}, wins {s['wins']}/{args.pairs}, gain {s['gain']}, "
              f"regressed {s['regressed']}, unresolved {s['unresolved']}")
    print(f"wrote {out}")
    if report["incorrect_runs"]:
        print(f"incorrect outputs in {len(report['incorrect_runs'])} run(s): "
              f"{report['incorrect_runs']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
