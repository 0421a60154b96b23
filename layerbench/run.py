#!/usr/bin/env python3
"""Builds and runs the wire-to-kernel serving benchmark.

    python3 layerbench/run.py --workload wire_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (layerbench/CMakeLists.txt, which compiles the library
sources under src/) into $CARGO_TARGET_DIR/layerbench, default
.bench_build/layerbench; later runs rebuild only what changed. Build output
goes to stderr. The benchmark's own output is relayed unchanged: readable
lines first, one JSON result object last. Exits non-zero, without a result,
when the sources are missing, the build fails or the run exceeds its time
limit.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("layerbench: library sources (src/) not found next to the benchmark", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "layerbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "layerbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("layerbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    binary = os.path.join(build_dir, "layerbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("layerbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
