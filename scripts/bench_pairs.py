#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

Runs `bench/run.py --workload W --seed S --trace 0` in two checkouts, the
parent commit's and the change's, one run at a time: odd pairs run the parent
first, even pairs the change first. After the last pair it prints, for every
end-to-end metric in the change's BENCHMARK.json, each side's median and
quartiles, the relative change of the medians and how many pairs the change
won (ties count for neither side). It only runs `bench/run.py`, with the run
length that file sets.

The runs and the summary go to `--out` (default BENCH.json) in the layout of
the BENCH_*.json files: `workloads["W/seedS"]` holds `summary` and `pairs`;
other entries of an existing file are kept, so several invocations can fill
one file. The file is rewritten after every pair. Run from anywhere:

    python scripts/bench_pairs.py ../parent . --workload harvest-json --pairs 10 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run: `correct`, `attempted`, `failed` and each metric's value."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    run = {key: result[key] for key in ("correct", "attempted", "failed")}
    run.update({name: round(m["value"], 4) for name, m in result["metrics"].items()})
    return run


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        if not all(name in p["parent"] and name in p["change"] for p in pairs):
            continue
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        sign = 1 if metric["better"] == "higher" else -1
        summary[name] = {
            "parent_median": round(pq[1], 4),
            "change_median": round(cq[1], 4),
            "parent_quartiles": [round(q, 4) for q in pq],
            "change_quartiles": [round(q, 4) for q in cq],
            "relative": round((cq[1] - pq[1]) / pq[1], 4) if pq[1] else None,
            "parent_iqr_relative": round((pq[2] - pq[0]) / pq[1], 4) if pq[1] else None,
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "bound": metric["bound"],
        }
    return summary


def describe(checkout: Path) -> str:
    """The checkout's short commit id, or its directory name outside git."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args()
    parent_dir, change_dir = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((change_dir / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("parent", describe(parent_dir))
    doc.setdefault(
        "method",
        "python3 bench/run.py --workload W --seed S --trace 0, one run at a time from two checkouts "
        "(parent and change, identical bench/); odd pairs run the parent first, even pairs the change first. "
        "Relative change is (change median - parent median) / parent median; quartiles are "
        "statistics.quantiles(n=4) over each side's runs; a pair is won when the change reads better.",
    )
    doc.setdefault("machine", f"{os.cpu_count()} CPUs, {platform.system()}, Python {platform.python_version()}")
    entry = doc.setdefault("workloads", {})[f"{args.workload}/seed{args.seed}"] = {"pairs": []}

    for n in range(1, args.pairs + 1):
        order = [("parent", parent_dir), ("change", change_dir)]
        if n % 2 == 0:
            order.reverse()
        pair = {"pair": n, "first": order[0][0]}
        for side, checkout in order:
            pair[side] = run_once(checkout, args.workload, args.seed)
        entry["pairs"].append(pair)
        entry["summary"] = summarize(entry["pairs"], metrics)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"pair {n}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: parent median [q1, q3] -> change median [q1, q3]")
    for name, s in entry["summary"].items():
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        relative = f"{s['relative']:+.1%}" if s["relative"] is not None else "n/a"
        print(
            f"  {name}: {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] -> {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            f" ({relative}, change better in {s['change_better_pairs']}/{args.pairs})"
        )
    failed = [(p["pair"], side) for p in entry["pairs"] for side in ("parent", "change") if not p[side]["correct"]]
    if failed:
        print(f"  runs not correct: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
