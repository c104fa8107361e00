#!/usr/bin/env python3
"""Build perfbench inside the checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 10 --trace 0

The Go build cache, temporary files, the binary and the traced run's
spans all stay under the build directory: $CARGO_TARGET_DIR when set,
else .bench_build in the checkout. The last line of standard output is
the run's JSON result (see perfbench/README.md). The build's own output
goes to standard error.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    gocache = os.path.join(build, "gocache")
    gotmp = os.path.join(build, "gotmp")
    os.makedirs(gocache, exist_ok=True)
    os.makedirs(gotmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=gocache,
        GOTMPDIR=gotmp,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--root", root, "--out", os.path.join(build, "perfbench")]
    sys.stdout.flush()
    os.execve(binary, args + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
