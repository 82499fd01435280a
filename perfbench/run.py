#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus lfp_perfbench) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when it is unset;
later runs only check that the build is up to date. Build output goes to
stderr, so the last line on stdout is lfp_perfbench's JSON result. The program
itself replaces this process (exec), so no process outlives the run.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "lfp_perfbench"


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, BINARY)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "census.hpp")):
        sys.stderr.write("perfbench: the library sources (src/) are missing next to "
                         "perfbench/; run from a full checkout\n")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.stderr.write("perfbench: build failed: %s\n" % error)
        return 2
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
