#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); the job
server's cache and the span file go to `perfbench-work` inside it. The
last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        print(
            "perfbench: the simulator's sources (Cargo.toml, crates/) are missing",
            file=sys.stderr,
        )
        return 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
