#!/usr/bin/env python3
"""Build and run the campaign benchmark from the repository root.

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 20 --trace 0

The Go program next to this file is built into .bench_build/, with the
Go build cache, temporary files and home directory there too, so a run
reads and writes only inside the checkout. The arguments pass through
to the program, whose last line of output is the JSON result. Without
the repository's sources the build fails and this exits non-zero.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.getcwd(), ".bench_build")
    home = os.path.join(build, "home")
    env = dict(
        os.environ,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOPATH=os.path.join(home, "go"),
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    for d in (home, env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if built.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return 1
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
