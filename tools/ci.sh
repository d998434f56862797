#!/usr/bin/env bash
# Local CI: the gate every PR must pass. Mirrors .github/workflows/ci.yml
# for machines without hosted CI.
#
#   tools/ci.sh          # full matrix: lint, format, default, strict,
#                        # asan-ubsan, tsan
#   tools/ci.sh quick    # lint + default build/test only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-full}"

step() { echo; echo "━━━ $* ━━━"; }

step "lint self-test (tools/lint_test.py)"
python3 tools/lint_test.py

step "ledger validator self-test (tools/report_test.py)"
python3 tools/report_test.py

step "lint (tools/lint.py)"
python3 tools/lint.py

step "clang-format check (changed files)"
if command -v clang-format >/dev/null 2>&1; then
  base="$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse 'HEAD~1' 2>/dev/null || echo '')"
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

step "default build + ctest (tier-1 verify)"
cmake --preset default >/dev/null
cmake --build build-default -j "$JOBS"
ctest --preset default -j "$JOBS"

step "detlint violation corpus (tests/detlint)"
# Each corpus case must trip exactly its intended rule id (wrong-reason
# failures rejected) and the controls must lint clean — proves the
# determinism rules actually bite and the escapes stay scoped.
ctest --test-dir build-default -R '^detlint\.' --output-on-failure -j "$JOBS"

step "archlint violation corpus (tests/archlint)"
# The architecture rules (layering DAG, include cycles, const escapes,
# shared-state immutability) must each bite on their encoded violation
# and stay quiet on the waived/NOLINT controls — same wrong-reason
# rejection as the detlint corpus above.
ctest --test-dir build-default -R '^archlint\.' --output-on-failure \
    -j "$JOBS"

step "layering scan (module DAG + cycles over the whole tree)"
# The default lint walk covers src/, bench/, tools/, tests/, examples/;
# zero layering-violation/cycle/const-escape findings means the declared
# module DAG and the deep-const shared-context contract hold with
# per-site justified waivers only.
python3 tools/lint.py src bench tests examples

step "header self-sufficiency gate (tests/headercheck)"
# Every public src/ header compiles as the sole content of a TU with
# only -I src — no include-order coupling between modules.
ctest --test-dir build-default -R '^headercheck\.' -j "$JOBS"

step "golden-hash determinism matrix (rankers x detectors x seeds x threads, baselines, detector lockstep)"
# Byte-stable digests across extract_threads {1,2,8} plus pinned golden
# constants, and the pinned FC/A-FC baselines; see DESIGN.md §12
# for the re-pin procedure. DetectorOracleTest holds the incremental
# Top-K and Feat-S statistics and Mod-C's angle bit-equal to their dense
# oracles (DESIGN.md §17, §18); LearnerOracleTest holds the memoized
# learner bit-equal to its reference arithmetic (§18). SearchGoldenTest
# pins search-access runs, one with live extraction; KernelOracleTest
# holds the relation kernel bit-equal to its nested-table reference (§19);
# CrfOracleTest holds the compiled CRF-lite recognizer label-equal to its
# dense reference (§20).
ctest --test-dir build-default \
    -R 'DeterminismGoldenTest|BaselineGoldenTest|SearchGoldenTest|DetectorOracleTest|LearnerOracleTest|KernelOracleTest|CrfOracleTest' \
    --output-on-failure -j "$JOBS"

step "bench_featurize perf trajectory"
# Hand-timed production-vs-reference comparison (DESIGN.md §14) in the
# pipeline's one feature format (1 + ln tf unigrams, l2-normalized):
# re-proves bitwise-identical features and enforces the >=1.5x featurize
# gate, at smoke scale.
IE_BENCH_DOCS=4000 ./build-default/bench/bench_featurize \
    --out=build-default/BENCH_featurize.json --reps=3

step "bench_extract smoke (speculative extraction executor + tracing)"
# Serial + 2-thread live-extraction runs on a small corpus: proves the
# executor engages (hit counters) and output stays byte-identical. The
# ≥2.5x @ 8-thread gate self-skips below 8 hardware threads. --trace adds
# the observability smoke: traced 2-thread runs export a Chrome trace and
# measure overhead against untraced runs (process-CPU ratios, in blocks of
# one off-first and one on-first pair; the gated value is the smallest
# block's geometric mean); --ledger does the same for the flight
# recorder (serial runs, JSONL run ledger).
IE_BENCH_DOCS=4000 ./build-default/bench/bench_extract \
    --threads=1,2 --out=build-default/BENCH_extract.json \
    --trace=build-default/trace_extract.json \
    --ledger=build-default/ledger_extract.jsonl

step "bench_index smoke (streaming corpus + compact index scale path)"
# One small tier end-to-end: stream-generate to the on-disk corpus format,
# build the product backend (CompactIndex) and the test oracle
# (tests/index_oracle.h) from the mapped file, prove the product backend
# returns the oracle's hits byte for byte and record the
# postings-compression ratio against the oracle. The ≥4x @ 1M-doc gate
# self-skips below the million-doc tier (run the full tiers with
# `./build-default/bench/bench_index` to refresh BENCH_index.json).
IE_BENCH_DOCS=4000 ./build-default/bench/bench_index \
    --out=build-default/BENCH_index.json
python3 - build-default/BENCH_index.json <<'EOF'
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
python3 tools/bench_trend.py --fresh build-default

step "detlint over the index/scale layer (src rules, oracle and bench included)"
# The new scale-path files must satisfy the src/-scoped determinism rules
# even where they live outside src/ (the test oracle and the bench harness
# that compares it with the product backend).
python3 tools/lint.py --treat-as-src src/index src/corpus/corpus_io.cc \
    tests/index_oracle.h bench/bench_index.cc

step "detlint over the observability exporters (export-path discipline)"
# The ledger writer and the bench JSON writers are machine-parsed export
# paths: every float they emit must go through the Format*/AppendJson*
# helpers (locale-independent, shortest round-trip).
python3 tools/lint.py --treat-as-src src/pipeline/recorder.cc \
    bench/bench_extract.cc bench/bench_featurize.cc

step "trace validation (tools/check_trace.py)"
# The exported trace must be well-formed, balanced, and monotonic, and
# must actually cover the hot phases: pipeline rank/consume/update spans,
# executor task spans, and the queue-depth counter track.
python3 tools/check_trace.py build-default/trace_extract.json \
    --require-span pipeline.run --require-span pipeline.sample \
    --require-span pipeline.warmup --require-span pipeline.rank \
    --require-span pipeline.update --require-span executor.task \
    --require-counter executor.queue_depth \
    --ledger build-default/ledger_extract.jsonl

step "flight-recorder ledger validation (tools/report.py)"
# The run ledger must satisfy the schema invariants (exact per-line keys,
# strict numbering, phase ordering, 0/1 flags, dw/dw_c on retrain lines
# only, footer totals equal to the lines' counts) — and so must a
# byte-truncated copy, proving the crash-safe append-per-line property
# actually yields parseable partial files. The report/diff renderers must
# run clean on real data.
python3 tools/report.py --validate build-default/ledger_extract.jsonl
head -c 2048 build-default/ledger_extract.jsonl \
    > build-default/ledger_truncated.jsonl
python3 tools/report.py --validate build-default/ledger_truncated.jsonl
python3 tools/report.py --report build-default/ledger_extract.jsonl \
    > /dev/null
python3 tools/report.py --diff build-default/ledger_extract.jsonl \
    build-default/ledger_truncated.jsonl > /dev/null

step "tracing overhead smoke (<= 10%)"
python3 - build-default/BENCH_extract.json <<'EOF'
import json, sys
ratio = json.load(open(sys.argv[1]))["trace_overhead_ratio"]
print("trace_overhead_ratio = %.3f" % ratio)
if ratio > 1.10:
    sys.exit("FAIL: traced run >10%% slower than untraced (%.3f)" % ratio)
EOF

step "flight-recorder overhead smoke (<= 3%)"
python3 - build-default/BENCH_extract.json <<'EOF'
import json, sys
ratio = json.load(open(sys.argv[1]))["recorder_overhead_ratio"]
print("recorder_overhead_ratio = %.3f" % ratio)
if ratio > 1.03:
    sys.exit("FAIL: recorded run >3%% slower than unrecorded (%.3f)" % ratio)
EOF

step "perfbench self-test (python3 perfbench/run.py --quick)"
# Builds the repository benchmark (perfbench/, in its own Release tree
# under .bench_build/), so an API change it compiles against fails here,
# then runs every workload once on a small corpus in both trace modes and
# checks that tampered runs are reported as failed.
python3 perfbench/run.py --quick

if [ "$MODE" = "quick" ]; then
  echo; echo "CI quick: OK"; exit 0
fi

step "strict warnings build (-Werror)"
cmake --preset strict >/dev/null
cmake --build build-strict -j "$JOBS"

step "thread-safety analysis + negcompile harness (clang)"
# Compiles all of src/ with -Wthread-safety[-beta] promoted to errors and
# runs the negative-compile cases (tests/negcompile/) that prove the
# analysis rejects each encoded lock-discipline violation. Needs clang;
# skipped (advisory) where only GCC is installed — hosted CI always runs it.
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset thread-safety >/dev/null
  cmake --build build-thread-safety -j "$JOBS"
  ctest --test-dir build-thread-safety -R '^negcompile\.' \
      --output-on-failure -j "$JOBS"
else
  echo "clang++ not installed; skipping (advisory — runs in hosted CI)"
fi

step "clang-tidy (concurrency-* as errors)"
if command -v run-clang-tidy >/dev/null 2>&1 && \
   command -v clang-tidy >/dev/null 2>&1; then
  # The default preset exports compile_commands.json; .clang-tidy already
  # promotes concurrency-* to errors.
  run-clang-tidy -quiet -p build-default "^$(pwd)/src/.*" >/dev/null
  echo "clang-tidy: OK"
else
  echo "run-clang-tidy not installed; skipping (advisory — runs in hosted CI)"
fi

step "sanitizer matrix (asan-ubsan, tsan)"
tools/run_sanitized_tests.sh

echo; echo "CI full: OK"
