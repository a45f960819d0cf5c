#!/usr/bin/env bash
# Single entry point for the repo's check ladder:
#
#   1. configure + build (RelWithDebInfo, default toolchain)
#   2. tier-1 test suite        (ctest, the correctness gate)
#   3. bench smoke              (ctest -L bench-smoke: every bench binary
#                                at RTSI_BENCH_SCALE=0.01 — catches bench
#                                bit-rot plus the correctness exits: the
#                                fig10 pruned-vs-full-walk divergence and
#                                the fig17 audit of the sound kGlobalPop
#                                bound against the full walk)
#   4. sanitizer gate           (tools/run_sanitizers.sh: full suite under
#                                ASan, `-L sanitizer` under TSan — the
#                                label includes query_pipeline_test, so
#                                the shared exec:: pipeline that every
#                                query path drives, src/exec/, is
#                                exercised under both sanitizers)
#
# Usage: tools/run_checks.sh [fast|full] [build-dir]
#   fast — steps 1-3 (the pre-push loop).
#   full — steps 1-4 (default; what CI runs).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-full}"
BUILD_DIR="${2:-$REPO_ROOT/build}"

case "$MODE" in
  fast|full) ;;
  *)
    echo "usage: $0 [fast|full] [build-dir]" >&2
    exit 2
    ;;
esac

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" -LE bench-smoke --output-on-failure \
      -j"$(nproc)"

echo "== bench smoke =="
ctest --test-dir "$BUILD_DIR" -L bench-smoke --output-on-failure \
      -j"$(nproc)"

if [ "$MODE" = "full" ]; then
  echo "== sanitizers =="
  "$REPO_ROOT/tools/run_sanitizers.sh" all "${BUILD_DIR}-san"
fi

echo "All checks passed."
