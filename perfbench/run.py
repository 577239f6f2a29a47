#!/usr/bin/env python3
"""Builds and runs the repo's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of a checkout. perfbench/CMakeLists.txt compiles the
library from ./src into the build directory named by CARGO_TARGET_DIR
(default .bench_build); the benchmark binary then prints its result as the
last line of stdout. Build output goes to stderr. --test builds and runs the
benchmark's own tests of its correctness checks.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = any(os.path.exists(os.path.join(build_dir, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main(argv):
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    testing = argv == ["--test"]
    target = "perfbench_checks_test" if testing else "perfbench"
    try:
        binary = build(build_dir, target)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    return subprocess.run([binary] + ([] if testing else argv)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
