#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): full warning-free build (-Werror) +
# complete test suite, then the fault/transport and overload tests again
# under ASan+UBSan — the chaos paths exercise retransmit-timer lambdas, PDU
# aliasing across endpoints, and crash/deregistration races that only the
# sanitizers can vouch for; the overload suites cover the shed, backpressure
# and reactive-tick paths; the MLB, SIMPLE and dMME suites cover the
# front-end relay lambdas; the codec and byte reader/writer suites
# (CodecFuzz included) run the generic field visitor over untrusted bytes;
# the MmeApp, ClusterVm and MME integration suites cover the MmeHost
# callbacks and the StateTransfer install; the OneBox, eNodeB and HSS/S-GW
# suites cover boxes shared by relays, CPU-queue captures and the eNodeB's
# parked radio-leg NAS.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# SCALE_WERROR: the default build is warning-free and must stay so. The ASan
# leg below goes without it: GCC 12 reports -Wmaybe-uninitialized false
# positives from inside libstdc++ under the sanitizers.
cmake -B build -S . -DSCALE_WERROR=ON >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

# Lint leg (DESIGN.md §6): ScaleLint rules L1-L7 and L9 over the tree —
# emitting the scale-lint-v1 report and diffing it against the committed
# LINT_baseline.json, so NEW findings and NEW waivers fail tier-1 (not just
# nonzero exits) — then clang-tidy via the exported compile commands.
scripts/lint.sh build

# Bench-smoke leg (DESIGN.md "Observability"): one cheap bench emits its
# scale-bench-v1 JSON and the in-tree checker validates it, so a schema
# regression in obs::Report fails the gate before any plotting script sees it.
build/bench/fig6_analysis --json build/BENCH_fig6_analysis.json >/dev/null
build/tools/obs/bench_json_check build/BENCH_fig6_analysis.json
build/bench/ablation_overload --json build/BENCH_ablation_overload.json \
  >/dev/null
build/tools/obs/bench_json_check build/BENCH_ablation_overload.json
# Full run: exit code asserts the measured SR/attach queueing delays sit in
# the analytic M/M/k / M/D/k / M/D/1-split brackets (bench/fig12_mmk.cpp).
build/bench/fig12_mmk --json build/BENCH_fig12_mmk.json >/dev/null
build/tools/obs/bench_json_check build/BENCH_fig12_mmk.json

# Perf-smoke leg (DESIGN.md §8): run the hot-path microbench and diff its
# allocation counters against the committed baseline. Alloc counts — not
# wall times — are the gate: they are deterministic, so "someone put a heap
# allocation back on the event path" fails tier-1 on any machine. The same
# full (non-quick) run holds fig10's world at 10⁶ UEs: the binary's exit
# code enforces the §12 bytes-per-UE budget, and --compare-capacity gates
# peak RSS (≤1.15× baseline) and events/s (≥0.4× baseline).
build/bench/perf_core --json build/BENCH_core_now.json >/dev/null
build/tools/obs/bench_json_check build/BENCH_core_now.json
build/tools/obs/bench_json_check --compare-allocs BENCH_core.json \
  build/BENCH_core_now.json
build/tools/obs/bench_json_check --compare-capacity BENCH_core.json \
  build/BENCH_core_now.json

# WholeRun leg (DESIGN.md §8): build the standalone wholerun/ benchmark
# project into build-wholerun and run each workload once at its tuning seed
# (1) and once at its held-out seed (90001). Any digest that differs from
# wholerun/seeds.json, or any nonzero check_failures, fails tier-1 — so "a
# speed-up changes no simulated output" is a gate, not a manual check.
cmake -S wholerun -B build-wholerun -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-wholerun -j"${JOBS}"
for w in iot_periodic geo_offload attach_churn; do
  for seed in 1 90001; do
    build-wholerun/wholerun --workload "${w}" --seed "${seed}" | tail -n 1 \
      > "build-wholerun/${w}.${seed}.json"
  done
done
python3 - <<'PY'
import json, sys
want = json.load(open("wholerun/seeds.json"))["workloads"]
bad = 0
for w, seeds in want.items():
    for seed in ("1", "90001"):
        got = json.load(open(f"build-wholerun/{w}.{seed}.json"))
        ok = (got["digest"] == seeds[seed]["digest"]
              and got["check_failures"] == 0)
        print(f"wholerun: {w} seed {seed}: digest {got['digest']} "
              f"(want {seeds[seed]['digest']}), check_failures "
              f"{got['check_failures']}: {'OK' if ok else 'FAIL'}")
        bad += not ok
sys.exit(1 if bad else 0)
PY

cmake -B build-asan -S . -DSCALE_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"${JOBS}" --target scale_tests perf_core
(cd build-asan && ctest --output-on-failure -j"${JOBS}" \
  -R 'Chaos|ReliableTest|FabricTest|FaultPlane|FailureInjection|Network|Obs|Engine|BufferPool|BoxAlloc|OverloadGovernor|OverloadIntegration|OverloadTokenBucket|Mlb|PoolOverload|SimpleBaseline|SimpleEdge|Dmme|Codec|ByteWriter|ByteReader|ByteRoundTrip|MmeApp|ClusterVm|MmeIntegration|OneBox|EnodeB|Hss|Sgw')
# MillionUE smoke under ASan+UBSan: the same capacity phases at 100 K UEs
# (--quick skips the absolute bytes-per-UE assert — sanitizer shadow memory
# inflates RSS) — slab growth, FlatIndex churn, and the storm's index
# reassignment paths all run instrumented.
build-asan/bench/perf_core --quick >/dev/null

echo "tier-1: OK"
