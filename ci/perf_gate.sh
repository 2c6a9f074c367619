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
#   4. The hot reconstruction code stays pinned: in bench_perf_micro,
#      ClusterServe's ReconstructTopN chunk body (its _M_invoke, which
#      holds best-first and the walk), its block-sum lambda (the one
#      kernel call site of best-first and the walk), its block-offer
#      lambda (it holds TopNAccumulator::Offer, which is always inlined;
#      .cold clones aside) and the scalar and AVX2 bodies of
#      kernels::FirstArgMax (best-first's block order) start at an
#      address that is 0 mod 64,
#      and no library under build/src other than libprivrec_serving.a
#      instantiates ReconstructTopN. serving.cc compiles with
#      -falign-functions=64, as does privrec_kernels, but a second
#      instantiation site in another library would run the loop from
#      code the flag does not reach. The same gate keeps instrumentation
#      out of the reconstruction loop: it disassembles each hot function
#      (start and size from nm -S, .cold clones aside) and fails on any
#      lock-prefixed instruction or any call into privrec::obs. The hot
#      functions are the five above, ReconstructTopN<ClusterServe> itself
#      (GCC inlines it into ClusterServe::Recommend, so there it is the
#      instructions addr2line -i attributes to it), kernels::FirstArgMax,
#      and kernels::AccumulateRows with its scalar and AVX2 bodies. A
#      counter increment is a lock-prefixed add and a span is a call to
#      obs::SpanScope, so either one in the per-user, per-block loop
#      fails here whatever it costs in time. Runs right after the build.
#
# Methodology matches ci/obs_overhead.sh: both sides of every
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

# Gate 4 (first: it needs no timing): the alignment pin and the
# instruction check.
python3 - build/bench/bench_perf_micro build/src <<'EOF'
import glob, os, platform, re, subprocess, sys
binary, lib_root = sys.argv[1], sys.argv[2]
RECONSTRUCT = "privrec::serving::ReconstructTopN<"
RECOMMEND = "privrec::serving::(anonymous namespace)::ClusterServe::Recommend("
LINE = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]{8,}) )?(\S) (.*)$")
INSN = re.compile(r"^\s*([0-9a-f]+):\s+(.*)$")
CALL = re.compile(r"^(?:call|jmp)\S*\s+[0-9a-f]+ <(.*)>$")
OFFER_LAMBDA = re.compile(  # the lambda itself (GCC may clone it), not one
    # nested in it
    r"\{lambda\(privrec::core::TopNAccumulator&, long, long\)#\d+\}"
    r"::operator\(\)\(privrec::core::TopNAccumulator&, long, long\) const"
    r"( \[clone [^\]]*\])?$")

def symbols(path, *flags):  # -> (address, size, nm type, demangled name)
    out = subprocess.run(["nm", "-C", "-S", *flags, path], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        m = LINE.match(line)
        if m and not m.group(4).endswith("[clone .cold]"):
            yield (int(m.group(1), 16), int(m.group(2) or "0", 16),
                   m.group(3), m.group(4))

def label_of(name):
    if ("ClusterServe" in name and "ReconstructTopN" in name
            and "::_M_invoke(" in name):
        return "ClusterServe chunk body"
    if ("ClusterServe" in name and "ReconstructTopN" in name
            and "{lambda(unsigned long, long, long)#1}::operator()" in name):
        return "ClusterServe block sum"
    if ("ClusterServe" in name and "ReconstructTopN" in name
            and OFFER_LAMBDA.search(name)):
        return "ClusterServe block offer"
    for label, prefix in (
            ("FirstArgMax scalar body",
             "privrec::kernels::(anonymous namespace)::FirstArgMaxScalarBody("),
            ("FirstArgMax AVX2 body",
             "privrec::kernels::(anonymous namespace)::FirstArgMaxAvx2Body(")):
        if name.startswith(prefix):
            return label
    return None

PINNED = ("ClusterServe chunk body", "ClusterServe block sum",
          "ClusterServe block offer", "FirstArgMax scalar body")
if platform.machine() == "x86_64":
    PINNED += ("FirstArgMax AVX2 body",)

def hot_label(name):
    label = label_of(name)
    if label is not None:
        return label
    if name.startswith(RECONSTRUCT) and "ClusterServe" in name:
        return "ReconstructTopN<ClusterServe>"
    for label, prefix in (
            ("FirstArgMax", "privrec::kernels::FirstArgMax("),
            ("AccumulateRows", "privrec::kernels::AccumulateRows("),
            ("AccumulateRows scalar body",
             "privrec::kernels::(anonymous namespace)::ScalarBody("),
            ("AccumulateRows AVX2 body",
             "privrec::kernels::(anonymous namespace)::Avx2Body(")):
        if name.startswith(prefix):
            return label
    return None

HOT = PINNED + ("ReconstructTopN<ClusterServe>", "FirstArgMax",
                "AccumulateRows", "AccumulateRows scalar body")
if platform.machine() == "x86_64":
    HOT += ("AccumulateRows AVX2 body",)

def disassemble(address, size):  # -> [(address, instruction text)]
    out = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn",
         f"--start-address={address:#x}", f"--stop-address={address + size:#x}",
         binary], check=True, capture_output=True, text=True).stdout
    return [(int(m.group(1), 16), m.group(2))
            for m in map(INSN.match, out.splitlines()) if m]

def inlined_from(insns, marker):  # the instructions whose inline chain
    # (the line table, via addr2line -i) passes through a frame `marker`
    query = "\n".join(f"{a:#x}" for a, _ in insns)
    out = subprocess.run(["addr2line", "-i", "-f", "-C", "-a", "-e", binary],
                         input=query, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    keep, address, k = set(), None, 0
    while k < len(out):
        if out[k].startswith("0x"):
            address, k = int(out[k], 16), k + 1
            continue
        if re.match(marker, out[k]):
            keep.add(address)
        k += 2  # function line, then its file:line
    return [(a, t) for a, t in insns if a in keep]

fail = False
found = set()
checked = {}  # hot label -> instructions checked
pieces = []   # (label, address, size, inline marker or None)
for addr, size, kind, name in symbols(binary):
    if kind not in "tTwW":
        continue
    label = label_of(name)
    if label is not None:
        found.add(label)
        ok = addr % 64 == 0
        print(f"[align] {label} at {addr:#x} (mod 64 = {addr % 64}) "
              f"{'OK' if ok else 'FAIL'}")
        fail |= not ok
    label = hot_label(name)
    if label is not None:
        pieces.append((label, addr, size, None))
    elif name.startswith(RECOMMEND):
        # GCC inlines ReconstructTopN into its one caller: check the
        # instructions the line table attributes to it there (the caller's
        # own per-batch span and counters are not the hot loop).
        pieces.append(("ReconstructTopN<ClusterServe>", addr, size,
                       r"(privrec::serving::)?ReconstructTopN<"))
for label in PINNED:
    if label not in found:
        print(f"FAIL: {label} not found in {binary}")
        fail = True
for label, addr, size, marker in pieces:
    insns = disassemble(addr, size)
    if marker is not None:
        insns = inlined_from(insns, marker)
    checked[label] = checked.get(label, 0) + len(insns)
    for a, text in insns:
        call = CALL.match(text)
        if text.startswith("lock") or (call and "privrec::obs::" in call.group(1)):
            print(f"FAIL: {label} at {a:#x}: {text}")
            fail = True
for label in HOT:
    if checked.get(label, 0) == 0:
        print(f"FAIL: {label} not found in {binary}")
        fail = True
    else:
        print(f"[hot] {label}: {checked[label]} instructions checked for "
              "lock prefixes and privrec::obs calls")
for lib in sorted(glob.glob(os.path.join(lib_root, "**", "lib*.a"),
                            recursive=True)):
    if os.path.basename(lib) == "libprivrec_serving.a":
        continue
    if any(RECONSTRUCT in name
           for _, _, _, name in symbols(lib, "--defined-only")):
        print(f"FAIL: {lib} also instantiates {RECONSTRUCT.rstrip('<')}")
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
echo "kernel perf gate: alignment pinned, hot loop free of atomics and obs" \
     "calls, dispatch verified, SIMD floors met"
