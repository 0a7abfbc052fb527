#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload arm_flow|arm_grade|serve_mix \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (the first run in a
fresh checkout compiles the project) and replaces itself with it.  The
last line of standard output is the result object.  Exits nonzero,
without printing a result, when the checkout lacks the sources, the
build fails, or the benchmark fails a gate.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a source checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    # keep every build artefact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
