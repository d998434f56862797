#!/usr/bin/env bash
# The gate every PR must pass. Each hosted CI job in
# .github/workflows/ci.yml installs its packages and runs one job below,
# so this file is the one place a check is written.
#
#   tools/ci.sh                 # every job: lint, test default, strict,
#                               # thread-safety, clang-tidy, test asan-ubsan,
#                               # test tsan
#   tools/ci.sh quick           # lint, then test default
#   tools/ci.sh lint            # self-tests, lint, clang-format
#   tools/ci.sh test <preset>   # build + ctest: default (plus the bench
#                               # smokes and perfbench), asan-ubsan, tsan
#   tools/ci.sh strict          # -Werror build
#   tools/ci.sh thread-safety   # clang -Wthread-safety build + negcompile
#   tools/ci.sh clang-tidy      # run-clang-tidy over src/
#
# Only the full run skips a clang job whose tool is missing (advisory:
# hosted CI runs it); a job named on the command line fails instead.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-full}"

step() { echo; echo "━━━ $* ━━━"; }

usage() {
  echo "usage: tools/ci.sh [quick | lint | test default|asan-ubsan|tsan |" \
       "strict | thread-safety | clang-tidy]" >&2
  exit 2
}

# Succeeds when every named tool is installed; a missing one skips the
# job in the full run and fails it otherwise (see above).
have() {
  local tool
  for tool in "$@"; do
    if ! command -v "$tool" >/dev/null 2>&1; then
      if [ "$MODE" = full ]; then
        echo "$tool not installed; skipping (advisory — runs in hosted CI)"
        return 1
      fi
      echo "ci.sh: $tool not installed" >&2
      exit 1
    fi
  done
}

job_lint() {
  step "lint self-test (tools/lint_test.py)"
  python3 tools/lint_test.py

  step "ledger validator self-test (tools/report_test.py)"
  python3 tools/report_test.py

  step "lint (tools/lint.py)"
  # The default walk covers src/, tests/, bench/ and examples/. Zero
  # layering-violation/cycle/const-escape findings means the module DAG
  # (the build's link graph, src/*/CMakeLists.txt) and the deep-const
  # shared-context contract hold with per-site justified waivers only.
  python3 tools/lint.py

  step "detlint over the index/scale layer (src rules, oracle and bench included)"
  # The scale-path files must satisfy the src/-scoped determinism rules
  # even where they live outside src/ (the test oracle and the bench
  # harness that compares it with the product backend).
  python3 tools/lint.py --treat-as-src src/index src/corpus/corpus_io.cc \
      tests/index_oracle.h bench/bench_index.cc

  step "detlint over the observability exporters (export-path discipline)"
  # The ledger writer and the bench JSON writers are machine-parsed export
  # paths: every float they emit must go through the Format*/AppendJson*
  # helpers (locale-independent, shortest round-trip).
  python3 tools/lint.py --treat-as-src src/pipeline/recorder.cc \
      bench/bench_extract.cc bench/bench_featurize.cc

  step "clang-format check (changed files)"
  # Changed since the branch left origin/main, or in the last commit on
  # main itself. Advisory where clang-format is missing; the hosted lint
  # job installs it.
  if command -v clang-format >/dev/null 2>&1; then
    local base
    base="$(git merge-base HEAD origin/main 2>/dev/null || true)"
    if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then
      base="$(git rev-parse 'HEAD~1' 2>/dev/null || true)"
    fi
    local changed
    changed=$(git diff --name-only --diff-filter=ACMR ${base:+$base} -- \
        '*.cc' '*.h' '*.cpp' | grep -E '^(src|tests|bench|examples)/' || true)
    if [ -n "$changed" ]; then
      # shellcheck disable=SC2086
      clang-format --dry-run --Werror $changed
    else
      echo "no changed C++ files"
    fi
  else
    echo "clang-format not installed; skipping (advisory)"
  fi
}

job_test() {
  local preset="$1"
  case "$preset" in
    default|asan-ubsan|tsan) ;;
    *) usage ;;
  esac
  step "$preset build + ctest"
  # The sanitizer presets build with IE_STRICT_WARNINGS=ON and run ctest
  # with halt-on-error sanitizer options. The one full ctest includes:
  # - the detlint and archlint violation corpora (tests/detlint,
  #   tests/archlint): each case must trip exactly its intended rule
  #   (wrong-reason failures rejected) and the controls must lint clean,
  #   proving the determinism and architecture rules (layering, include
  #   cycles, const escapes, shared-state immutability) bite and the
  #   waiver/NOLINT escapes stay scoped;
  # - the header self-sufficiency gate (tests/headercheck): every public
  #   src/ header compiles as the sole content of a TU with only -I src;
  # - the golden-hash determinism matrix (DeterminismGoldenTest,
  #   BaselineGoldenTest, SearchGoldenTest; DESIGN.md §12 has the re-pin
  #   procedure): byte-stable digests across extract_threads {1,2,8} for
  #   rankers x detectors x seeds, the pinned FC/A-FC baselines and the
  #   search-access pins, one with live extraction;
  # - the oracle lockstep suites: DetectorOracleTest holds the incremental
  #   Top-K and Feat-S statistics and Mod-C's angle bit-equal to their
  #   dense oracles (§17, §18), LearnerOracleTest the memoized learner to
  #   its reference arithmetic (§18), KernelOracleTest the relation kernel
  #   to its nested-table reference (§19), CrfOracleTest the compiled
  #   CRF-lite recognizer label-equal to its dense reference (§20).
  cmake --preset "$preset" >/dev/null
  cmake --build "build-$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS"

  if [ "$preset" = tsan ]; then
    step "tsan stress spins (x5)"
    # Races here are scheduling-dependent, so one ctest pass under-samples
    # them: the executor stress surface, then the metrics registry and
    # tracer hammered from WorkQueue workers while a snapshotter reads
    # concurrently (tests/observability_test.cc).
    build-tsan/tests/extract_parallel_test \
        --gtest_filter='ExtractExecutorStress.*:WorkQueueTest.Concurrent*' \
        --gtest_repeat=5 --gtest_brief=1
    build-tsan/tests/observability_test \
        --gtest_filter='ObservabilityStress.*' \
        --gtest_repeat=5 --gtest_brief=1
  fi
  if [ "$preset" = default ]; then
    default_smokes
  fi
}

default_smokes() {
  local out=build-default

  step "bench_featurize perf trajectory"
  # Hand-timed production-vs-reference comparison (DESIGN.md §14) in the
  # pipeline's one feature format (1 + ln tf unigrams, l2-normalized):
  # re-proves bitwise-identical features and enforces the >=1.5x featurize
  # gate, at smoke scale.
  IE_BENCH_DOCS=4000 "$out/bench/bench_featurize" \
      --out="$out/BENCH_featurize.json" --reps=3

  step "bench_extract smoke (speculative extraction executor + tracing)"
  # Serial + 2-thread live-extraction runs on a small corpus: proves the
  # executor engages (hit counters) and output stays byte-identical. The
  # ≥2.5x @ 8-thread gate self-skips below 8 hardware threads. --trace adds
  # the observability smoke: traced 2-thread runs export a Chrome trace and
  # measure overhead against untraced runs (process-CPU ratios, in blocks of
  # one off-first and one on-first pair; the gated value is the smallest
  # block's geometric mean); --ledger does the same for the flight
  # recorder (serial runs, JSONL run ledger).
  IE_BENCH_DOCS=4000 "$out/bench/bench_extract" \
      --threads=1,2 --out="$out/BENCH_extract.json" \
      --trace="$out/trace_extract.json" \
      --ledger="$out/ledger_extract.jsonl"

  step "bench_index smoke (streaming corpus + compact index scale path)"
  # One small tier end-to-end: stream-generate to the on-disk corpus format,
  # build the product backend (CompactIndex) and the test oracle
  # (tests/index_oracle.h) from the mapped file, prove the product backend
  # returns the oracle's hits byte for byte and record the
  # postings-compression ratio against the oracle. The ≥4x @ 1M-doc gate
  # self-skips below the million-doc tier (run the full tiers with
  # `./build-default/bench/bench_index` to refresh BENCH_index.json).
  IE_BENCH_DOCS=4000 "$out/bench/bench_index" --out="$out/BENCH_index.json"
  python3 - "$out/BENCH_index.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
if not data["byte_identical"]:
    sys.exit("FAIL: product backend (CompactIndex) hits differ from the oracle")
ratio = data["tiers"][0]["compression_ratio"]
print("compression_ratio = %.2fx" % ratio)
EOF

  step "bench trend vs committed trajectory (tools/bench_trend.py)"
  # The smoke runs above left fresh BENCH_*.json under build-default/.
  # Hard invariants (byte_identical, no gate FAIL) always apply; the >15%
  # regression rule on gated ratio metrics engages when a fresh run matches
  # the committed baseline's scale (see DESIGN.md §14 for the refresh
  # protocol).
  python3 tools/bench_trend.py --fresh "$out"

  step "trace validation (tools/check_trace.py)"
  # The exported trace must be well-formed, balanced, and monotonic, and
  # must actually cover the hot phases: pipeline rank/consume/update spans,
  # executor task spans, and the queue-depth counter track.
  python3 tools/check_trace.py "$out/trace_extract.json" \
      --require-span pipeline.run --require-span pipeline.sample \
      --require-span pipeline.warmup --require-span pipeline.rank \
      --require-span pipeline.update --require-span executor.task \
      --require-counter executor.queue_depth \
      --ledger "$out/ledger_extract.jsonl"

  step "flight-recorder ledger validation (tools/report.py)"
  # The run ledger must satisfy the schema invariants (exact per-line keys,
  # strict numbering, phase ordering, 0/1 flags, dw/dw_c on retrain lines
  # only, footer totals equal to the lines' counts) — and so must a
  # byte-truncated copy, proving the crash-safe append-per-line property
  # actually yields parseable partial files. The report/diff renderers must
  # run clean on real data.
  python3 tools/report.py --validate "$out/ledger_extract.jsonl"
  head -c 2048 "$out/ledger_extract.jsonl" > "$out/ledger_truncated.jsonl"
  python3 tools/report.py --validate "$out/ledger_truncated.jsonl"
  python3 tools/report.py --report "$out/ledger_extract.jsonl" > /dev/null
  python3 tools/report.py --diff "$out/ledger_extract.jsonl" \
      "$out/ledger_truncated.jsonl" > /dev/null

  step "tracing (<= 10%) and flight-recorder (<= 3%) overhead smokes"
  python3 - "$out/BENCH_extract.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
for key, limit in (("trace_overhead_ratio", 1.10),
                   ("recorder_overhead_ratio", 1.03)):
    print("%s = %.3f" % (key, data[key]))
    if data[key] > limit:
        sys.exit("FAIL: %s %.3f above %.2f" % (key, data[key], limit))
EOF

  step "perfbench self-test (python3 perfbench/run.py --quick)"
  # Builds the repository benchmark (perfbench/, in its own Release tree
  # under .bench_build/), so an API change it compiles against fails here,
  # then runs every workload once on a small corpus in both trace modes and
  # checks that tampered runs are reported as failed.
  python3 perfbench/run.py --quick
}

job_strict() {
  step "strict warnings build (-Werror)"
  cmake --preset strict >/dev/null
  cmake --build build-strict -j "$JOBS"
}

job_thread_safety() {
  step "thread-safety analysis + negcompile harness (clang)"
  # Compiles all of src/ with -Wthread-safety[-beta] promoted to errors and
  # runs the negative-compile cases (tests/negcompile/) that prove the
  # analysis rejects each encoded lock-discipline violation.
  have clang++ || return 0
  cmake --preset thread-safety >/dev/null
  cmake --build build-thread-safety -j "$JOBS"
  ctest --test-dir build-thread-safety -R '^negcompile\.' \
      --output-on-failure -j "$JOBS"
}

job_clang_tidy() {
  step "clang-tidy (concurrency-* as errors)"
  # The default preset exports compile_commands.json; .clang-tidy already
  # promotes concurrency-* to errors.
  have clang-tidy run-clang-tidy || return 0
  cmake --preset default >/dev/null
  run-clang-tidy -quiet -p build-default "^$(pwd)/src/.*"
}

case "$MODE" in
  full)
    job_lint
    job_test default
    job_strict
    job_thread_safety
    job_clang_tidy
    job_test asan-ubsan
    job_test tsan ;;
  quick)
    job_lint
    job_test default ;;
  lint) job_lint ;;
  test) job_test "${2:-}" ;;
  strict) job_strict ;;
  thread-safety) job_thread_safety ;;
  clang-tidy) job_clang_tidy ;;
  *) usage ;;
esac
echo; echo "CI $MODE${2:+ $2}: OK"
