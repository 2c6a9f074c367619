#!/usr/bin/env bash
# Kernel-layer performance gate: the dispatched SIMD paths must actually
# pay for their existence, and forcing them off must actually force them
# off.
#
#   1. BM_KernelAccumulateSimd    >= KERNEL_SIMD_MIN_SPEEDUP x scalar
#      BM_KernelAccumulateF32Simd >= KERNEL_SIMD_MIN_SPEEDUP x scalar
#      (default 2.0) — asserted only when the binary reports
#      kernel_dispatch=avx2 in its benchmark context; on a host that
#      resolves to scalar there is no SIMD path to gate and the ratio
#      checks are skipped (the bit-identity tests still cover it).
#   2. BM_KernelSelectTopN (dense nth_element/heap kernel) must not be
#      slower than the materialize-pairs partial_sort baseline it
#      replaced (KERNEL_SELECT_MIN_RATIO, default 1.0).
#   3. PRIVREC_NO_SIMD=1 must pin dispatch to scalar (checked via the
#      benchmark context) and kernels_test must stay green under it.
#   4. The hot reconstruction templates stay pinned: in bench_perf_micro,
#      kernels::DenseTopNOffer<core::Recommendation>, ClusterServe's
#      ReconstructTopN chunk body (its _M_invoke, which holds best-first)
#      and its block-sum lambda (the one kernel call site of best-first
#      and the walk; .cold clones aside) start at an address that is
#      0 mod 64, and no library under
#      build/src other than libprivrec_serving.a defines that
#      DenseTopNOffer instantiation. serving.cc compiles with
#      -falign-functions=64, but the linker keeps the copy from whichever
#      object it links first, so a second instantiation site could hand
#      it an unaligned one. Runs right after the build.
#
# Methodology matches ci/obs_overhead.sh gate 2: both sides of every
# ratio live in the same binary, run in one process with randomly
# interleaved repetitions, and the min over repetitions is compared —
# scheduler noise is strictly additive, so the minimum is the cleanest
# estimate of the true cost. The same invocation (plus --benchmark_out)
# is what produces the committed BENCH_kernels.json.
#
# Usage: ci/perf_gate.sh [repetitions]
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-5}"
SIMD_MIN="${KERNEL_SIMD_MIN_SPEEDUP:-2.0}"
SELECT_MIN="${KERNEL_SELECT_MIN_RATIO:-1.0}"

cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)" --target bench_perf_micro kernels_test

# Gate 4 (first: it needs no timing): the alignment pin.
python3 - build/bench/bench_perf_micro build/src <<'EOF'
import glob, os, re, subprocess, sys
binary, lib_root = sys.argv[1], sys.argv[2]
OFFER = "privrec::kernels::DenseTopNOffer<privrec::core::Recommendation>("
LINE = re.compile(r"^([0-9a-f]+) (\S) (.*)$")

def symbols(path, *flags):
    out = subprocess.run(["nm", "-C", *flags, path], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        m = LINE.match(line)
        if m and not m.group(3).endswith("[clone .cold]"):
            yield int(m.group(1), 16), m.group(3)

def label_of(name):
    if OFFER in name:
        return "DenseTopNOffer<Recommendation>"
    if ("ClusterServe" in name and "ReconstructTopN" in name
            and "::_M_invoke(" in name):
        return "ClusterServe chunk body"
    if ("ClusterServe" in name and "ReconstructTopN" in name
            and "{lambda(unsigned long, long, long)#1}::operator()" in name):
        return "ClusterServe block sum"
    return None

fail = False
found = set()
for addr, name in symbols(binary):
    label = label_of(name)
    if label is None:
        continue
    found.add(label)
    ok = addr % 64 == 0
    print(f"[align] {label} at {addr:#x} (mod 64 = {addr % 64}) "
          f"{'OK' if ok else 'FAIL'}")
    fail |= not ok
for label in ("DenseTopNOffer<Recommendation>", "ClusterServe chunk body",
              "ClusterServe block sum"):
    if label not in found:
        print(f"FAIL: {label} not found in {binary}")
        fail = True
for lib in sorted(glob.glob(os.path.join(lib_root, "**", "lib*.a"),
                            recursive=True)):
    if os.path.basename(lib) == "libprivrec_serving.a":
        continue
    if any(OFFER in name for _, name in symbols(lib, "--defined-only")):
        print(f"FAIL: {lib} also instantiates {OFFER.rstrip('(')}")
        fail = True
sys.exit(1 if fail else 0)
EOF

run_kernels() {  # run_kernels  (env decides dispatch)  -> JSON on stdout
  build/bench/bench_perf_micro --threads=1 \
    '--benchmark_filter=^BM_Kernel' \
    "--benchmark_repetitions=${REPS}" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_format=json 2>/dev/null
}

gate() {  # gate <json file> <simd_min> <select_min>
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
simd_min, select_min = float(sys.argv[2]), float(sys.argv[3])
dispatch = doc["context"].get("kernel_dispatch", "unknown")
best = {}
for b in doc["benchmarks"]:
    if b.get("run_type") == "iteration":
        name, t = b["run_name"], b["real_time"]
        best[name] = min(best.get(name, t), t)
print(f"kernel_dispatch: {dispatch}")
fail = False
def ratio(label, num, den, floor):
    global fail
    r = best[num] / best[den]
    ok = r >= floor
    print(f"[{label}] {num}: {best[num]:.0f} ns  {den}: {best[den]:.0f} ns"
          f"  ratio {r:.2f}x (floor {floor}x) {'OK' if ok else 'FAIL'}")
    if not ok:
        fail = True
if dispatch == "avx2":
    ratio("accumulate f64", "BM_KernelAccumulateScalar",
          "BM_KernelAccumulateSimd", simd_min)
    ratio("accumulate f32", "BM_KernelAccumulateF32Scalar",
          "BM_KernelAccumulateF32Simd", simd_min)
else:
    print("skip: SIMD speedup floors need kernel_dispatch=avx2 "
          f"(host resolved {dispatch})")
ratio("select top-n", "BM_KernelSelectTopNBaseline",
      "BM_KernelSelectTopN", select_min)
sys.exit(1 if fail else 0)
EOF
}

SCRATCH=perf-gate-scratch
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

# Gates 1 + 2: dispatched build at the host's resolved level.
run_kernels > "$SCRATCH/kernels.json"
gate "$SCRATCH/kernels.json" "$SIMD_MIN" "$SELECT_MIN"

# Gate 3: PRIVREC_NO_SIMD pins dispatch to scalar — the context string is
# the same one statusz serves — and the bit-identity suite holds there.
PRIVREC_NO_SIMD=1 run_kernels > "$SCRATCH/kernels_noswitch.json"
python3 - "$SCRATCH/kernels_noswitch.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
dispatch = doc["context"].get("kernel_dispatch", "unknown")
if dispatch != "scalar":
    print(f"FAIL: PRIVREC_NO_SIMD=1 still reports kernel_dispatch={dispatch}",
          file=sys.stderr)
    sys.exit(1)
print("PRIVREC_NO_SIMD=1: kernel_dispatch pinned to scalar")
EOF
PRIVREC_NO_SIMD=1 build/tests/kernels_test > "$SCRATCH/kernels_test.log" 2>&1 \
  || { cat "$SCRATCH/kernels_test.log"; exit 1; }
echo "PRIVREC_NO_SIMD=1: kernels_test green on the forced-scalar path"

rm -rf "$SCRATCH"
echo "kernel perf gate: alignment pinned, dispatch verified, SIMD floors met"
