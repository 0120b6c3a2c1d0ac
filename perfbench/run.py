#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_ab --seed 1 --seconds 20 --trace 0

Every file the build and the run write stays under the build directory
($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
binary, the persistence directories and the span dumps. The last line of
standard output is the result JSON; a failed build exits non-zero
without printing one.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, GOTOOLCHAIN="local", **dirs)

    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    state = os.path.join(build, "perfbench")
    os.execve(binary, [binary, *sys.argv[1:], "--state-dir", state], env)


if __name__ == "__main__":
    sys.exit(main())
