#!/usr/bin/env python3
"""Interleaved pairs of the end-to-end benchmark on two revisions.

    python3 scripts/bench_pairs.py BASE HEAD --pairs 10

Run it from inside the repository.  Both revisions are exported with
``git archive`` into a temporary directory outside the repository (under
--tmp, default the system's), and each runs its own
``perfbench/run.py --workload W --seed k --seconds S --trace 0``, with S
the ``run_seconds`` of the head's ``BENCHMARK.json``.  Pair k = 1 .. N
gives both sides seed k, and the side that runs first alternates from
pair to pair.  A run that does not end with ``correct: true`` and
``failed 0`` stops the script (exit 1) with the run's output.

For each workload in the head's ``BENCHMARK.json`` and each end-to-end
metric there, the script prints the median and
quartiles of both sides, the number of pairs in which the head is better,
and whether the shift of the medians exceeds the base's quartile distance.
The temporary trees are removed on exit; each run's workers end with the
run.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """The tree of rev, unpacked into dest; returns the full commit id."""
    commit = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit)), mode="r:") as tar:
        tar.extractall(dest)
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run, or SystemExit if it is not clean."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = None
    if proc.returncode == 0 and lines:
        try:
            summary = json.loads(lines[-1])
        except ValueError:
            pass
    if not summary or summary.get("correct") is not True or summary.get("failed") != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run not clean: {workload} seed {seed} in {tree}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def report(workload: str, metrics, base: list[dict], head: list[dict]) -> None:
    print(f"\n{workload}: {len(base)} pairs")
    print(f"  {'metric':<14} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}"
          f" {'head better':>11}  shift > base IQR")
    for name, better in metrics:
        b = [run[name] for run in base]
        h = [run[name] for run in head]
        bq, hq = (statistics.quantiles(xs, n=4, method="inclusive") for xs in (b, h))
        sign = -1 if better == "lower" else 1
        wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        shift = hq[1] - bq[1]
        exceeds = abs(shift) > bq[2] - bq[0]
        verdict = ("yes, " + ("better" if sign * shift > 0 else "worse")) if exceeds else "no"
        print(f"  {name:<14} {bq[1]:>12.6f} [{bq[0]:.6f}, {bq[2]:.6f}]"
              f" {hq[1]:>12.6f} [{hq[0]:.6f}, {hq[2]:.6f}]"
              f" {wins:>5} of {len(b):<3}  {verdict} ({shift:+.6f})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tmp", default=None, help="where to make the temporary trees")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    tmp = tempfile.mkdtemp(prefix="bench_pairs-", dir=args.tmp)
    try:
        trees = {side: os.path.join(tmp, side) for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", args.head)):
            os.mkdir(trees[side])
            print(f"{side}: {export(rev, trees[side])}")
        with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"base": [], "head": []}
            for k in range(1, args.pairs + 1):
                order = ("base", "head") if k % 2 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, k,
                                               bench["run_seconds"]))
                print(f"{workload} pair {k}/{args.pairs} done", file=sys.stderr)
            report(workload, metrics, runs["base"], runs["head"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
