#!/usr/bin/env bash
# Build and run the full test suite under sanitizers.
#
#   tools/run_sanitized_tests.sh            # asan-ubsan then tsan
#   tools/run_sanitized_tests.sh asan-ubsan # one preset
#   tools/run_sanitized_tests.sh tsan
#
# Each preset configures into build-<preset>/ (see CMakePresets.json) with
# IE_STRICT_WARNINGS=ON, builds everything, and runs ctest with
# halt-on-error sanitizer options. Exit nonzero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(asan-ubsan tsan)
fi

JOBS="${JOBS:-$(nproc)}"

for preset in "${PRESETS[@]}"; do
  case "$preset" in
    asan-ubsan|tsan) ;;
    *) echo "run_sanitized_tests.sh: unknown preset '$preset'" >&2; exit 2 ;;
  esac
  echo "=== [$preset] configure ==="
  cmake --preset "$preset" >/dev/null
  echo "=== [$preset] build (-j$JOBS) ==="
  cmake --build "build-$preset" -j "$JOBS"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset" -j "$JOBS"
  if [ "$preset" = tsan ]; then
    # Extra spins of the executor stress surface: races here are
    # scheduling-dependent, so one ctest pass under-samples them.
    echo "=== [$preset] extract executor stress (x5) ==="
    "build-$preset/tests/extract_parallel_test" \
        --gtest_filter='ExtractExecutorStress.*:WorkQueueTest.Concurrent*' \
        --gtest_repeat=5 --gtest_brief=1
    # Metrics registry + tracer hammered from WorkQueue workers while a
    # snapshotter reads concurrently (see tests/observability_test.cc).
    echo "=== [$preset] observability stress (x5) ==="
    "build-$preset/tests/observability_test" \
        --gtest_filter='ObservabilityStress.*' \
        --gtest_repeat=5 --gtest_brief=1
  fi
  echo "=== [$preset] OK ==="
done
