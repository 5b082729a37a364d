#!/usr/bin/env python3
"""Build the benchmark and the server from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build (dune, into _build/) prints
to standard error; the benchmark's last line of standard output is its
JSON result.  Exits non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "rtabench.exe")
RTA_CLI = os.path.join(ROOT, "_build", "default", "bin", "rta_cli.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/rtabench.exe", "./bin/rta_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [EXE, *sys.argv[1:], "--rta-cli", RTA_CLI]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
