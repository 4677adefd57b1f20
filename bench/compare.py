"""Paired perfbench runs of a parent revision against HEAD.

    python3 bench/compare.py <parent-rev> --workload apply --pairs 10

Run from anywhere inside this repository. Both revisions are checked out
with plain git into `<work>/parent` and `<work>/change`, two paths of
equal length, since the length of a checkout's path can move a run's
resident size. `<work>` is a new temporary directory, removed when the
script ends, unless `--work DIR` names one to keep; DIR must not hold
either checkout yet. Pair i runs the benchmark command of BENCHMARK.json
(`python3 perfbench/run.py`) once in each checkout with `--workload W
--seed S+i --seconds T --trace 0`, T being BENCHMARK.json's
`run_seconds`, the parent first in even pairs and the change first in
odd ones, and reads the last line of its standard output, the JSON object
that perfbench prints. Nothing else of perfbench is read.

Printed: one line per pair, then per end-to-end metric of BENCHMARK.json
the parent's median and quartiles, the change's median and its move, the
median gap measured in the parent's interquartile range, and the pairs in
which the change was better. A run that exits nonzero ends the series:
its error is printed and the pairs completed before it are summarised.
The exit code is 1 if a run exited nonzero, failed an operation or was
not correct. Repeated, alternated runs summarised by their median and
spread follow Kalibera & Jones, "Rigorous benchmarking in reasonable
time", ISMM 2013.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")  # also the checkouts' directory names, of one length


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> str:
    """Check `rev` of this repository out into `dest`; its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(dest))
    git("checkout", "--quiet", "--detach", commit, cwd=dest)
    return commit


def run(tree: Path, argv: list) -> dict | None:
    """The JSON object of one benchmark run in `tree`, or None, with its
    error printed, if the run exited nonzero."""
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def value(doc: dict, name: str) -> float:
    """Metric `name` of a run's JSON object."""
    return doc["metrics"][name]["value"]


def summary(parent: list, change: list, better: str) -> dict:
    """One metric's paired values: the parent's median and quartiles, the
    change's median, the median gap over the parent's interquartile range
    (positive where the change is better), and the change's wins."""
    q1, mid, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                   else parent * 3)
    med = statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    iqr = q3 - q1
    return {"parent": mid, "q1": q1, "q3": q3, "change": med,
            "move": med / mid - 1.0 if mid else float("nan"),
            "gap_iqr": sign * (med - mid) / iqr if iqr else float("nan"),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change))}


def pairs(bench: dict, trees: dict, workload: str, count: int, seed: int) -> tuple:
    """Run up to `count` pairs; the completed pairs' JSON objects per side,
    and whether every run exited 0, failed no operation and was correct."""
    results = {side: [] for side in SIDES}
    for i in range(count):
        argv = [*bench["command"], "--workload", workload, "--seed", str(seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        docs = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            docs[side] = run(trees[side], argv)
            if docs[side] is None:
                return results, False
        for side in SIDES:
            results[side].append(docs[side])
        print(f"pair {i} seed {seed + i}: " + "; ".join(
            f"{m['name']} {value(docs['parent'], m['name']):.4g} -> "
            f"{value(docs['change'], m['name']):.4g}" for m in bench["end_to_end"]), flush=True)
    ok = all(doc["correct"] is True and doc["failed"] == 0
             for docs in results.values() for doc in docs)
    if not ok:
        print("some run failed an operation or was not correct")
    return results, ok


def report(bench: dict, results: dict) -> None:
    """Print each end-to-end metric's summary over the completed pairs."""
    n = len(results["parent"])
    print(f"\n{n} completed pairs")
    if not n:
        return
    print("| metric | parent median (q1-q3) | change median | move | gap / parent IQR | change wins |")
    print("| --- | --- | --- | --- | --- | --- |")
    for m in bench["end_to_end"]:
        s = summary(*([value(doc, m["name"]) for doc in results[side]] for side in SIDES),
                    m["better"])
        print(f"| `{m['name']}` ({m['better']} is better) | {s['parent']:.4g} ({s['q1']:.4g}-{s['q3']:.4g}) "
              f"| {s['change']:.4g} | {s['move']:+.1%} | {s['gap_iqr']:+.2f} | {s['wins']}/{n} |")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="the parent revision; the change is HEAD")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    p.add_argument("--work", type=Path,
                   help="where to keep the checkouts (default: a temporary directory, removed at the end)")
    args = p.parse_args(argv)
    if args.work is not None:
        taken = [str(args.work / side) for side in SIDES if (args.work / side).exists()]
        if taken:
            p.error(f"--work already holds {', '.join(taken)}; name another directory")
    with tempfile.TemporaryDirectory(prefix="compare-") as temp:
        work = args.work or Path(temp)
        trees = {side: work / side for side in SIDES}
        commits = {side: checkout(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, "HEAD"))}
        print(f"{args.workload}: parent {commits['parent'][:12]} against change "
              f"{commits['change'][:12]}, {args.pairs} pairs of {bench['run_seconds']:g} s runs in {work}",
              flush=True)
        results, ok = pairs(bench, trees, args.workload, args.pairs, args.seed)
    report(bench, results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
