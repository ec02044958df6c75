#!/usr/bin/env python3
"""Run the benchmark in pairs, a parent revision against the working tree,
and write BENCH_<label>.json.

For each workload and each seed, one pair is two runs of the unchanged
`perfbench/run.py --trace 0`: one in a checkout of the parent revision
(made with `git archive` into a temporary directory) and one in the
working tree.  Which side goes first alternates from pair to pair.  With
--holdout each workload also gets one pair at perfbench's held-out seed.

    python3 scripts/bench_pairs.py --parent HEAD --label pr21 \\
        --workload compile-exact --seeds 21-30 \\
        --workload paper-noisy --seeds 21-23 --holdout

The file holds every run's end-to-end metrics; per workload and metric,
each side's median and quartiles and the pairs each side won (a tie
counts for neither), with the metric's direction from BENCHMARK.json; and
nproc, the Python and numpy versions and both git revisions.  The working
tree's revision is HEAD, with the SHA-256 of `git diff HEAD -- src`, the
program's uncommitted changes, when there are any.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOLDOUT = "holdout"


def seed_list(text: str) -> list[int]:
    """'21-25' or '21,23,30' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> dict:
    """Median and first and third quartiles, by linear interpolation
    between the sorted values (one value is all three)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, and the pairs each side won.

    runs holds one {"parent": metrics, "change": metrics} per pair;
    better maps a metric to "higher" or "lower".  A pair in which the two
    sides read the same counts for neither.
    """
    out = {}
    for name, direction in better.items():
        pairs = [(r["parent"][name], r["change"][name]) for r in runs
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        sign = 1 if direction == "higher" else -1
        parent, change = zip(*pairs)
        out[name] = {
            "better": direction,
            "pairs": len(pairs),
            "parent": quartiles(list(parent)),
            "change": quartiles(list(change)),
            "wins": {
                "parent": sum(sign * (p - c) > 0 for p, c in pairs),
                "change": sum(sign * (c - p) > 0 for p, c in pairs),
            },
        }
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def revision_of_tree() -> dict:
    diff = subprocess.run(["git", "diff", "HEAD", "--", "src"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    rev = {"sha": git("rev-parse", "HEAD")}
    if diff:
        rev["src_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return rev


def export(rev: str, dest: Path) -> None:
    """The files of rev, written into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int | str, seconds: float) -> dict:
    """One perfbench run; its result line, parsed."""
    which = ["--holdout"] if seed == HOLDOUT else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *which,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})  # each imports its own src
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_pairs(sides: dict[str, Path], workload: str, seeds: list, seconds: float,
              log) -> list[dict]:
    runs = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = run_once(sides[side], workload, seed, seconds)
            pair[side] = result.pop("metrics")
            pair[f"{side}_run"] = result
            log(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}")
        runs.append(pair)
    return runs


def environment(parent_rev: str) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "parent": {"rev": parent_rev, "sha": git("rev-parse", parent_rev)},
        "change": revision_of_tree(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True, type=seed_list,
                        help="one per --workload, e.g. 21-30")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--holdout", action="store_true",
                        help="also one pair per workload at perfbench's held-out seed")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds per --workload")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {
        "label": args.label,
        "environment": environment(args.parent),
        "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "workloads": {},
    }

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        sides = {"parent": parent, "change": ROOT}
        for workload, seeds in zip(args.workload, args.seeds):
            runs = run_pairs(sides, workload, seeds, args.seconds, log)
            entry = {"seeds": seeds, "runs": runs, "summary": summarize(runs, better)}
            if args.holdout:
                held = run_pairs(sides, workload, [HOLDOUT], args.seconds, log)
                entry["holdout"] = {"runs": held, "summary": summarize(held, better)}
            record["workloads"][workload] = entry
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
