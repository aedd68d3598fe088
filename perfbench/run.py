#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ycsb-load --seed 1 --seconds 10 --trace 0

The Go build keeps its cache, temporary files and configuration under
.bench_build/ in the checkout, so nothing outside the checkout is read for
configuration or written. The benchmark's own output (its last line is a
JSON object) passes through unchanged, and so does its exit code. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    for d in ("gocache", "gopath", "tmp", home):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        HOME=home,
        XDG_CONFIG_HOME=home,
        XDG_CACHE_HOME=home,
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    src = os.path.join(ROOT, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=src,
        env=go_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
