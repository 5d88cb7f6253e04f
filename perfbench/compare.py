#!/usr/bin/env python3
"""Paired comparison of two checkouts on the benchmark.

Usage:

    python3 perfbench/compare.py --parent <dir> --change <dir>

Each <dir> is the root of a checkout holding BENCHMARK.json and this
directory; both must carry identical benchmark files. Every workload of
BENCHMARK.json runs in PAIRS pairs; within a pair the two sides run the
same workload with the same seed (SEED_BASE + pair index), alternating
which side runs first; each side builds into its own <dir>/.bench_build.
The report gives, per (workload, end-to-end metric), each side's median
and quartiles and a verdict:

* gain: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's own
  quartile spread;
* regression: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* unresolved: the parent's run-to-run spread (quartile distance over its
  median) exceeds the bound and not every change run beats every parent
  run;
* within bound: none of the above.

The seeds are held out: SEED_BASE lies outside the seeds any benchmark
document quotes, so do not tune a change on them. Exits 1 when any
metric regresses on any workload, 0 otherwise.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

# Pairs per workload: the fewest the 9-of-10 rule can judge.
PAIRS = 10
# First held-out seed.
SEED_BASE = 9000


def bench_digest(root):
    """Hash of BENCHMARK.json and every file under the benchmark's paths."""
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as f:
        raw = f.read()
    spec = json.loads(raw)
    h = hashlib.sha256(raw)
    skip = {"target", "traces", "__pycache__"}
    for path in spec["paths"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, path)):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, root).encode())
                with open(full, "rb") as f:
                    h.update(f.read())
    return spec, h.hexdigest()


def run_once(root, spec, workload, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} seed {seed} answered wrongly: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Verdict for paired samples (parent[i] and change[i] share a seed)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pm, pq3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = -sign * (cm - pm) / pm
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (pq3 - pq1) / pm > bound and not all_better:
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    if wins >= 0.9 * len(parent) and abs(cm - pm) > (pq3 - pq1):
        return "gain", wins
    return "within bound", wins


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args(argv)
    spec, digest = bench_digest(args.change)
    _, parent_digest = bench_digest(args.parent)
    if digest != parent_digest:
        raise SystemExit("the two checkouts carry different benchmark files; compare like with like")
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    values = {(side, w): [] for side in sides for w in workloads}
    for i in range(PAIRS):
        seed = SEED_BASE + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                values[(side, w)].append(run_once(sides[side], spec, w, seed))
            print(f"pair {i + 1}/{PAIRS} {w} done", file=sys.stderr, flush=True)
    regressions = 0
    print(f"{'workload':<16} {'metric':<12} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name] for r in values[("parent", w)]]
            c = [r[name] for r in values[("change", w)]]
            v, wins = verdict(p, c, m["better"], m["bound"])
            regressions += v == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:<16} {name:<12} {fmt(quartiles(p)):>32} {fmt(quartiles(c)):>32} "
                  f"{wins:>3}/{len(p):<2}  {v} (bound {m['bound']}, {m['better']} is better)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
