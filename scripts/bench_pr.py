"""Run the kgbench workloads on two source trees in alternating pairs.

Usage:
    python scripts/bench_pr.py PARENT_TREE CHANGE_TREE --out BENCH.json
        [--workloads verify,sweep,sublevel] [--seeds 1-10]

For every workload and seed this runs `python3 kgbench/run.py --workload W
--seed S --seconds SECONDS --trace 0` once in each tree, each tree with its
own kgbench and sources.  The workloads (by default all of them), the
run length SECONDS and the metrics come from BENCHMARK.json in
CHANGE_TREE.  The default seeds give ten pairs per workload.  Pairs alternate which tree runs first (the
parent at the first seed, the change at the second, and so on), so a
drift of the host over the session does not favour one side.

The output file holds every run's end-to-end metrics, failed and
attempted operation counts, exit code, source record and `minflt` (the
minor page faults of the run's processes, from the change of
RUSAGE_CHILDREN's ru_minflt across it), and per workload and metric the
two medians, the parent's interquartile range and the number of pairs in
which the change was better, and per side the median `minflt`.  An existing output file of the same two trees and run length is updated
workload by workload, so workloads can be run with different seeds.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7' (or a mix) to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One kgbench run; its last stdout line is the JSON result."""
    cmd = [sys.executable, "kgbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    record = {"exit": proc.returncode, "elapsed_s": round(time.perf_counter() - start, 3),
              "minflt": resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = proc.stderr.strip()[-2000:]
        return record
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    record["failed"], record["attempted"] = result["failed"], result["attempted"]
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
            record["commit"], record["src_sha256"] = env.get("commit"), env.get("src_sha256")
    return record


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Medians, parent IQR and the count of pairs the change won, per metric."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "change_better_in": sum((b < a) if lower else (b > a) for a, b in both),
            "pairs": len(both),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "kgbench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no kgbench/run.py")
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {
        "trees": {side: str(tree) for side, tree in trees.items()},
        "seconds": seconds,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "workloads": {},
    }
    if args.out.exists():
        # Add to an earlier report of the same trees, e.g. another workload's seeds.
        earlier = json.loads(args.out.read_text())
        if (earlier.get("trees"), earlier.get("seconds")) != (report["trees"], seconds):
            parser.error(f"{args.out} holds runs of other trees or another run length")
        report["workloads"] = earlier["workloads"]
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: wall_s {pair[side].get('wall_s')} "
                      f"minflt {pair[side]['minflt']} exit {pair[side]['exit']}", flush=True)
            pairs.append(pair)
        minflt = {side: statistics.median(p[side]["minflt"] for p in pairs) for side in SIDES}
        print(f"{workload} median minflt: parent {minflt['parent']}, change {minflt['change']}", flush=True)
        report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics), "minflt_median": minflt}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = any(p[s]["exit"] != 0 for w in report["workloads"].values() for p in w["pairs"] for s in SIDES)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
