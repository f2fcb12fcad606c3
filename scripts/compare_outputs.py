"""Compare the CLI outputs of two source trees byte for byte.

Usage: python scripts/compare_outputs.py PARENT_TREE CHANGE_TREE

For each tree, and under OPENBLAS_NUM_THREADS=1 and =2, this runs in
fresh interpreters with PYTHONPATH=<tree>/src, each writing into its own
temporary directory:

    kernelgauge verify scenarios/{disc_baseline,annulus_strict,annulus_matched}.json
    kernelgauge verify higher_order.json
    kernelgauge sweep scenarios/annulus_strict.json --param alpha_u --range=-0.4:0.5:9
    kernelgauge kernel-eval scenarios/<each of the three>.json --curve {boundary,radial}
    kernelgauge selftest

The three shipped scenarios are all k = 0, as kernel-eval requires;
higher_order.json is a k = 1 annulus scenario that this script writes
(HIGHER_ORDER), so the order-zero reduction is compared too.  Both trees
read the same scenario files, CHANGE_TREE's shipped ones and the written
one, so only the code differs.  That makes 56 outputs: every report.csv, report.md, sweep.csv
and kernel_eval_*.csv, the selftest's stdout, which prints the sublevel
checks (g_curve, shell identity, boundary limit, Hardy diagnostic), and
every exit code, under both BLAS thread counts.
Each one that differs between the trees is printed with a diff, and a
differing CSV file also with the size of the change: for each numeric
column, the largest change divided by the column's largest |value| in
PARENT_TREE, where a pair re_X, im_X counts as one complex column X.  The script exits 1 if any output differs or is missing,
and 0 if all are byte-identical.  Standard library only.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("disc_baseline", "annulus_strict", "annulus_matched")
THREADS = ("1", "2")
# Equality case of order k = 1: a_G + 2 p0 = 4 and 2 alpha_z0 + alpha_u = 1 + 0.
HIGHER_ORDER = {
    "domain": {"kind": "annulus", "q": 0.25},
    "point": {"z0": [0.3, 0.4]},
    "k": 1,
    "weight": {"p0": 1.5, "aG": 1.0, "c": {"kind": "exp_delta", "delta": -0.3}},
    "run": {"basis_schedule": [8, 16, 32], "boundary_nodes": 256, "radial_cells": 160, "angular_cells": 192},
}


def commands(scenarios: Path, higher_order: Path):
    """(name, CLI arguments, output files) of every compared command.

    A command with no output files is compared by its stdout.
    """
    for name in SCENARIOS:
        yield name, ["verify", str(scenarios / f"{name}.json")], ("report.csv", "report.md")
    yield "higher_order", ["verify", str(higher_order)], ("report.csv", "report.md")
    sweep = ["sweep", str(scenarios / "annulus_strict.json"), "--param", "alpha_u", "--range=-0.4:0.5:9"]
    yield "sweep_alpha_u", sweep, ("sweep.csv",)
    for name in SCENARIOS:
        for curve in ("boundary", "radial"):
            args = ["kernel-eval", str(scenarios / f"{name}.json"), "--curve", curve]
            yield f"{name}_kernel_eval_{curve}", args, (f"kernel_eval_{curve}.csv",)
    yield "selftest", ["selftest"], ()


def run_tree(tree: Path, scenarios: Path, higher_order: Path, threads: str,
             work: Path) -> dict[str, bytes | int | None]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    outputs: dict[str, bytes | int | None] = {}
    for name, args, files in commands(scenarios, higher_order):
        out = work / name
        if files:
            args = [*args, "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "kernelgauge.cli", *args],
                              cwd=work, env=env, capture_output=True)
        outputs[f"{name} exit code"] = proc.returncode
        if not files:
            outputs[f"{name} stdout"] = proc.stdout
        for file in files:
            path = out / file
            outputs[f"{name}/{file}"] = path.read_bytes() if path.exists() else None
    return outputs


def show_difference(parent, change) -> None:
    if isinstance(parent, bytes) and isinstance(change, bytes):
        diff = difflib.unified_diff(parent.decode().splitlines(), change.decode().splitlines(),
                                    "parent", "change", lineterm="")
        for line in diff:
            print("    " + line)
    else:
        print(f"    parent: {parent!r}, change: {change!r}")


def size_difference(parent: bytes, change: bytes) -> None:
    """Print each numeric column's largest change, relative to the column's largest |value| in parent.

    A pair of columns re_X and im_X is sized as the one complex column X:
    the largest |change of X| over the largest |X|, so an imaginary part
    that is roundoff alone does not read as a large change.
    """
    (head, *old), (new_head, *new) = (list(csv.reader(io.StringIO(data.decode()))) for data in (parent, change))
    if head != new_head or len(old) != len(new):
        print("    not sized: the header or the row count differs")
        return
    columns: dict[str, list[tuple[float, float]]] = {}
    for j, name in enumerate(head):
        try:
            columns[name] = [(float(a[j]), float(b[j])) for a, b in zip(old, new)]
        except (ValueError, IndexError):
            continue  # not a numeric column
    for name, pairs in columns.items():
        if name.startswith("im_") and "re_" + name[3:] in columns:
            continue  # sized with its real part
        imag = columns.get("im_" + name[3:]) if name.startswith("re_") else None
        if imag is not None:
            pairs = [(complex(a, c), complex(b, d)) for (a, b), (c, d) in zip(pairs, imag)]
            name = f"{name[3:]} (re_{name[3:]}, im_{name[3:]})"
        # A nan on both sides is no change; on one side only, the change is nan.
        moved = [abs(a - b) for a, b in pairs if not (cmath.isnan(a) and cmath.isnan(b))]
        largest = math.nan if any(map(math.isnan, moved)) else max(moved, default=0.0)
        scale = max((abs(a) for a, _ in pairs if not cmath.isnan(a)), default=0.0)
        if scale:
            print(f"    {name}: largest change {largest / scale:.2e} of the column's largest |value|")
        else:
            print(f"    {name}: largest change {largest:.2e} (absolute; no nonzero value in the column)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI outputs of two source trees byte for byte.")
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    args = parser.parse_args(argv)
    trees = (args.parent_tree.resolve(), args.change_tree.resolve())
    scenarios = trees[1] / "scenarios"
    compared = failed = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        higher_order = Path(tmp) / "higher_order.json"
        higher_order.write_text(json.dumps(HIGHER_ORDER, indent=1))
        for threads in THREADS:
            results = []
            for label, tree in zip(("parent", "change"), trees):
                work = Path(tmp) / threads / label
                work.mkdir(parents=True)
                results.append(run_tree(tree, scenarios, higher_order, threads, work))
            parent, change = results
            for key in parent:
                compared += 1
                if parent[key] is None or change[key] is None:
                    failed += 1
                    print(f"MISSING  OPENBLAS_NUM_THREADS={threads}  {key}")
                    show_difference(parent[key], change[key])
                elif parent[key] != change[key]:
                    failed += 1
                    print(f"DIFFERS  OPENBLAS_NUM_THREADS={threads}  {key}")
                    show_difference(parent[key], change[key])
                    if key.endswith(".csv"):
                        size_difference(parent[key], change[key])
                else:
                    print(f"same     OPENBLAS_NUM_THREADS={threads}  {key}")
    print(f"{compared - failed} of {compared} outputs byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
