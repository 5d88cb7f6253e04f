#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package in this directory is built in release mode against the
repository's crates (into $CARGO_TARGET_DIR, default perfbench/target).
`--trace 0` runs the `perfbench` binary, which prints the end-to-end
metrics; `--trace 1` runs `perfbench-traced`, which installs a counting
allocator and prints the per-layer metrics. The binary's standard output
is passed through: its last line is the JSON result. Any failure (build,
bad arguments, a wrong answer that stops the run, a percentile with too
few samples) exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def trace_flag(argv):
    for i, arg in enumerate(argv[:-1]):
        if arg == "--trace":
            return argv[i + 1] == "1"
    return False


def main(argv):
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--bins", "--manifest-path", manifest],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = "perfbench-traced" if trace_flag(argv) else "perfbench"
    run = subprocess.run([os.path.join(target, "release", binary)] + argv)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
