#!/usr/bin/env bash
# Sanitizer gate for the concurrency-critical surface: builds and runs
# the suite under ASan and/or TSan. ASan catches the lifetime bugs a
# view swap could introduce (a component freed while a pinned view still
# walks it, a transferred ceiling cell); TSan catches the publication races the
# epoch/pin protocol must exclude.
#
# Usage: tools/run_sanitizers.sh [asan|tsan|all] [build-dir-prefix]
#   asan  — full test suite under AddressSanitizer (heap misuse can hide
#           in any test, so no label filter).
#   tsan  — ctest -L sanitizer under ThreadSanitizer (builds only those
#           targets; a full TSan build of every bench would add time for
#           no coverage).
#   all   — both, ASan first (default).
# Build dirs: <prefix>-asan / <prefix>-tsan (default prefix: build).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"
PREFIX="${2:-$REPO_ROOT/build}"

# Keep in sync with the `sanitizer` ctest label in tests/CMakeLists.txt.
TSAN_TARGETS=(
  thread_pool_test
  background_merge_test
  lsm_tree_test
  crash_recovery_test
  checkpoint_atomicity_test
  view_publication_test
  service_determinism_test
  live_term_table_stress_test
  live_arena_test
  window_arena_test
  shard_determinism_test
  shard_crash_recovery_test
  async_server_test
  query_pipeline_test
  ranking_invariants_test
  snapshot_midcascade_test
  stream_placement_test
)

run_asan() {
  local build_dir="${PREFIX}-asan"
  cmake -B "$build_dir" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRTSI_SANITIZE=address
  cmake --build "$build_dir" -j"$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
    ctest --test-dir "$build_dir" -LE bench-smoke --output-on-failure \
          -j"$(nproc)"
  echo "ASan run clean."
}

run_tsan() {
  local build_dir="${PREFIX}-tsan"
  cmake -B "$build_dir" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRTSI_SANITIZE=thread
  cmake --build "$build_dir" -j"$(nproc)" --target "${TSAN_TARGETS[@]}"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$build_dir" -L sanitizer --output-on-failure \
          -j"$(nproc)"
  echo "TSan run clean."
}

case "$MODE" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *)
    echo "usage: $0 [asan|tsan|all] [build-dir-prefix]" >&2
    exit 2
    ;;
esac
