#!/usr/bin/env python3
"""Builds `rp` and the benchmark harness from source, then runs the harness.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); cargo's output goes
to stderr so the harness's JSON result stays the last line of stdout.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        print("perfbench: the repository sources are missing next to perfbench/", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rp-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    harness = os.path.join(target, "release", "rp-perfbench")
    rp = os.path.join(target, "release", "rp")
    sys.stdout.flush()
    os.execv(harness, [harness] + sys.argv[1:] + ["--rp", rp])


if __name__ == "__main__":
    sys.exit(main())
