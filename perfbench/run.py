#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig8-local --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.go). The
build and everything the Go toolchain caches go under .bench_build/ in
the repository root, so nothing is read or written outside the
checkout. A failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOMODCACHE=os.path.join(build, "go-path", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
