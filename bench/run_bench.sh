#!/usr/bin/env sh
# Runs the launch-overhead benchmark subset in smoke mode and collects the
# machine-readable BENCH_*.json reports. Usage:
#
#   bench/run_bench.sh <bench-binary-dir> [out-dir]
#
# or via the build system:  cmake --build build --target bench
#
# Smoke mode (the default; set ALPAKA_BENCH_FULL=1 for the long sweeps) is
# what CI tracks: it is fast enough to run on every PR and still resolves
# the per-launch overhead with best-of-N timing.
set -eu

BIN_DIR=${1:?usage: run_bench.sh <bench-binary-dir> [out-dir]}
OUT_DIR=${2:-${BENCH_OUT_DIR:-$(pwd)}}
export BENCH_OUT_DIR="$OUT_DIR"

# A failed gate fails the run, but only after every bench has written its
# report, so one failure does not hide the other benches' results.
status=0

echo "== bench_launch_overhead (JSON -> $OUT_DIR/BENCH_launch_overhead.json)"
"$BIN_DIR/bench_launch_overhead" || status=1

echo "== bench_fig5_zero_overhead (JSON -> $OUT_DIR/BENCH_fig5.json)"
"$BIN_DIR/bench_fig5_zero_overhead" || status=1

echo "== bench_micro (launch-overhead filter)"
"$BIN_DIR/bench_micro" \
    --benchmark_filter='BM_KernelLaunch.*|BM_StreamCpuAsyncEnqueue' \
    --benchmark_out="$OUT_DIR/BENCH_micro_launch.json" \
    --benchmark_out_format=json

echo "== reports in $OUT_DIR:"
ls -1 "$OUT_DIR"/BENCH_*.json
exit $status
