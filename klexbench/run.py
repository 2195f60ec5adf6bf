#!/usr/bin/env python3
"""Builds and runs the kl-exclusion benchmark.

Usage (from the repository root):

    python3 klexbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `klex` binary (the repository's workspace) and this benchmark package (its own
workspace under klexbench/) in release mode into $CARGO_TARGET_DIR (default: .bench_build),
then runs the benchmark.  Build output goes to standard error; the benchmark's standard
output, whose last line is the JSON result, passes through unchanged.  Exits non-zero
without a result when either build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    """Runs one cargo build from the repository root; returns True on success."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("klexbench: no workspace to build at " + ROOT, file=sys.stderr)
        return 2
    if not (build(["-p", "bench", "--bin", "klex"])
            and build(["--manifest-path", os.path.join("klexbench", "Cargo.toml")])):
        print("klexbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "klexbench")] + sys.argv[1:]
    cmd += ["--klex", os.path.join(release, "klex")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
