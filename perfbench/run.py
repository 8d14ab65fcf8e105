#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `pbc` binary from the repository's workspace and the
`perfbench` package beside this file into one target directory
(`$CARGO_TARGET_DIR`, default `.bench_build`), then runs the benchmark
binary, which prints a human-readable table and, as its last line, one
JSON result object. Build output goes to standard error, so standard
output carries only the benchmark's own lines. Exits non-zero, without
a result line, if either build fails or the benchmark does.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=840,
    )
    return done.returncode == 0


def main():
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("perfbench: no workspace Cargo.toml beside perfbench/; nothing to measure\n")
        return 2
    if not build(["-p", "pbc-cli", "--bin", "pbc"], target):
        sys.stderr.write("perfbench: building pbc failed\n")
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target):
        sys.stderr.write("perfbench: building the benchmark failed\n")
        return 2
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--pbc",
        os.path.join(target, "release", "pbc"),
        "--work-dir",
        os.path.join(target, "perfbench-work"),
    ] + sys.argv[1:]
    # The benchmark reaps its own children; this waits for it.
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
