#!/usr/bin/env python3
"""Builds the benchmark from source and runs it pinned to one vCPU.

    python3 perfbench/run.py --nominal-ref-ms MS --workload paper|scale|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); its output goes to stderr, so standard output
carries only the benchmark's own lines, the last being the JSON result.
The benchmark then runs under `taskset -c <cpu>`: the whole process (client,
server threads, reference loop) shares one vCPU, so each run sees a
single vCPU's speed. Exits with the benchmark's exit code, or the build's
when the build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(here, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cpu = min(os.sched_getaffinity(0))
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run(["taskset", "-c", str(cpu), exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
