#!/usr/bin/env bash
# Static-analysis leg (DESIGN.md §6): ScaleLint + baseline diff + clang-tidy.
#
#   leg 1  scale_lint — repo-specific determinism, invariant,
#          shard-readiness and reach rules L1–L7 and L9 over src/ bench/
#          tests/ examples/ tools/ (L9 also indexes wholerun/src/ as reach,
#          without linting it). Any finding fails. The run also emits the scale-lint-v1
#          JSON report, which is diffed against the committed
#          LINT_baseline.json: a NEW finding or NEW `// lint:` waiver fails
#          tier-1 even when the exit code alone would not (waivers widen the
#          audited surface silently otherwise). Re-baseline after review
#          with scripts/lint_baseline.sh.
#   leg 2  clang-tidy — the curated .clang-tidy profile over src/, driven by
#          the compile commands CMake exports. WarningsAsErrors: '*' in the
#          config gives every diagnostic -Werror semantics. Skipped with a
#          notice when no clang-tidy binary is installed (the container
#          bakes in gcc only); leg 1 always runs.
#
# Usage: scripts/lint.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc)"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" --target scale_lint bench_json_check -j"${JOBS}"

echo "== lint leg 1: scale_lint (rules L1-L7, L9) =="
"${BUILD_DIR}/tools/lint/scale_lint" --root . \
  --json "${BUILD_DIR}/LINT_now.json" src bench tests examples tools
"${BUILD_DIR}/tools/obs/bench_json_check" --lint "${BUILD_DIR}/LINT_now.json"
"${BUILD_DIR}/tools/obs/bench_json_check" --compare-lint \
  LINT_baseline.json "${BUILD_DIR}/LINT_now.json"

echo "== lint leg 2: clang-tidy (curated .clang-tidy profile) =="
CLANG_TIDY="$(command -v clang-tidy || true)"
if [[ -z "${CLANG_TIDY}" ]]; then
  echo "clang-tidy not installed; skipping leg 2 (install clang-tidy to enable)"
else
  if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
    echo "error: ${BUILD_DIR}/compile_commands.json missing" >&2
    exit 2
  fi
  # All first-party translation units; headers ride along via
  # HeaderFilterRegex. xargs -P parallelizes across cores.
  find src tools -name '*.cpp' -print0 |
    xargs -0 -n 1 -P "${JOBS}" "${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet
fi

echo "lint: OK"
