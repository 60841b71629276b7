#!/usr/bin/env bash
# The repo's one verification entry point — CI runs this same script
# (.github/workflows/ci.yml), so a green local run means a green CI run.
#
# Build/test matrix:
#
#   stage     build dir      config                               tests run
#   -------   ------------   ----------------------------------   --------------
#   plain     build/         default                              tier-1, soak excluded
#   static    build/         telea_lint + clang-tidy + cppcheck   (source analysis only)
#   asan      build-asan/    -DTELEA_SANITIZE=address;undefined,  tier-1 + one soak pass
#                            asserts + _GLIBCXX_ASSERTIONS on
#   thread    build-tsan/    -DTELEA_SANITIZE=thread              tier-1, soak excluded
#
# Why each stage: the soaks run once under ASan/UBSan because their fault-plan
# churn covers the most lifecycle/teardown code per wall-clock second. That
# stage also drops RelWithDebInfo's -DNDEBUG and adds libstdc++'s container
# checks, so every assert() (MAC/medium state-machine guards included) runs
# somewhere in CI. Each
# simulation is single-threaded by design, but the trial runner
# (src/harness/runner, docs/PARALLELISM.md) executes independent trials on a
# worker pool — so the TSan stage additionally drives a runner-backed bench
# smoke at jobs=8 to prove the pool shares nothing mutable between trials. The static stage always
# runs tools/telea_lint (built from this tree); clang-tidy and cppcheck run
# only when installed (CI installs them; a bare container skips with a notice).
#
# Usage:
#   scripts/check.sh              # plain + asan + thread + static
#   scripts/check.sh --fast       # plain + static only
#   scripts/check.sh --san-only   # asan + thread only
#   scripts/check.sh --static     # static analysis only
#   scripts/check.sh --lint-fix   # apply telea_lint's mechanical fixes
#                                 # (doc rows, metric bullets), then report
#
# Long randomized soaks (ctest label "soak") are excluded from the fast
# default pass and run once under ASan/UBSan. Plain `ctest` still runs
# everything. Tier-1 includes the exact pin of bench/baselines/ (ctest
# bench_baselines_exact), so every stage that runs tier-1 checks it. Any
# bench_results/*.json the test runs produce must parse (tools/json_lint) or
# the check fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_plain=1
run_san=1
run_static=1
run_lint_fix=0
for arg in "$@"; do
  case "$arg" in
    --fast) run_san=0 ;;
    --san-only) run_plain=0; run_static=0 ;;
    --static) run_plain=0; run_san=0 ;;
    --lint-fix) run_plain=0; run_san=0; run_static=0; run_lint_fix=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

build_and_test() {
  local dir="$1"; shift
  local labels="$1"; shift
  cmake -S "$repo" -B "$dir" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -LE soak
  if [ "$labels" = "soak" ]; then
    ctest --test-dir "$dir" --output-on-failure -L soak
  fi
  lint_results "$dir"
}

lint_results() {
  local dir="$1"
  local artifacts=()
  while IFS= read -r f; do artifacts+=("$f"); done \
    < <(find "$dir" -path '*/bench_results/*.json' 2>/dev/null)
  if [ "${#artifacts[@]}" -gt 0 ]; then
    "$dir/tools/json_lint" "${artifacts[@]}"
  fi
}

build_lint() {
  # telea_lint needs only its own sources; build just that target.
  cmake -S "$repo" -B "$repo/build" >/dev/null
  cmake --build "$repo/build" -j "$jobs" --target telea_lint
}

static_stage() {
  echo "== static analysis (docs/STATIC_ANALYSIS.md) =="
  build_lint
  "$repo/build/tools/telea_lint" --root "$repo"

  if command -v clang-tidy >/dev/null 2>&1; then
    # Changed files against the merge base when on a branch, else the full
    # src/ tree. clang-tidy reads .clang-tidy at the repo root.
    local files=()
    local base
    base="$(git -C "$repo" merge-base HEAD origin/main 2>/dev/null ||
            git -C "$repo" merge-base HEAD main 2>/dev/null || true)"
    if [ -n "$base" ] && [ "$base" != "$(git -C "$repo" rev-parse HEAD)" ]; then
      while IFS= read -r f; do
        case "$f" in
          src/*.cpp|tools/*.cpp|examples/*.cpp) files+=("$repo/$f") ;;
        esac
      done < <(git -C "$repo" diff --name-only --diff-filter=d "$base")
    else
      while IFS= read -r f; do files+=("$f"); done \
        < <(find "$repo/src" -name '*.cpp')
    fi
    if [ "${#files[@]}" -gt 0 ]; then
      echo "-- clang-tidy (${#files[@]} files)"
      clang-tidy -p "$repo/build" --quiet "${files[@]}"
    fi
  else
    echo "-- clang-tidy skipped (not installed)"
  fi

  if command -v cppcheck >/dev/null 2>&1; then
    echo "-- cppcheck"
    cppcheck --error-exitcode=1 --inline-suppr --std=c++20 \
      --enable=warning,portability \
      --suppressions-list="$repo/.cppcheck-suppressions" \
      -I "$repo/src" -I "$repo/tools" \
      "$repo/src" "$repo/tools"
  else
    echo "-- cppcheck skipped (not installed)"
  fi
}

if [ "$run_plain" = 1 ]; then
  echo "== default build + tests (soak excluded) =="
  build_and_test "$repo/build" ""
fi

if [ "$run_lint_fix" = 1 ]; then
  echo "== telea_lint --fix (mechanical fixes only) =="
  build_lint
  # Exit 1 here means findings remain that need a human; the fixes that
  # could be applied mechanically already were.
  "$repo/build/tools/telea_lint" --root "$repo" --fix
fi

if [ "$run_static" = 1 ]; then
  static_stage
fi

if [ "$run_san" = 1 ]; then
  echo "== ASan/UBSan build + tests (incl. one soak pass) =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  build_and_test "$repo/build-asan" "soak" "-DTELEA_SANITIZE=address;undefined" \
    "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g -D_GLIBCXX_ASSERTIONS"

  echo "== TSan build + tests (fast label) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  build_and_test "$repo/build-tsan" "" "-DTELEA_SANITIZE=thread"

  echo "== TSan runner smoke (8 concurrent trials) =="
  # The trial runner under maximum concurrency: 8 workers over the testbed
  # sweep's 8 trials. Any cross-trial shared mutable state is a TSan report.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  "$repo/build-tsan/bench/bench_testbed" --runs 1 --warmup 4 --minutes 4 \
    --jobs 8
fi

echo "all checks passed"
