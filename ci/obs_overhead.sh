#!/usr/bin/env bash
# Asserts that an attached ServeTelemetry sink stays off the serve hot
# path: it must cost less than OBS_OVERHEAD_PCT (default 3%), comparing
# BM_ServeHandleTelemetry against BM_ServeHandle inside one binary (the
# sink folds one wide event per request under a single mutex, never per
# user or per item). Widen the threshold with OBS_OVERHEAD_PCT if a box
# is too jittery to resolve 3%.
#
# The reconstruction hot loop itself carries no instrumentation: gate 4
# of ci/perf_gate.sh disassembles its functions and fails on any
# lock-prefixed instruction or call into privrec::obs.
#
# Usage: ci/obs_overhead.sh
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${OBS_OVERHEAD_PCT:-3}"

cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)" --target bench_perf_micro

compare() {  # compare <label> <on_ns> <off_ns>
  python3 - "$1" "$2" "$3" "$THRESHOLD" <<'EOF'
import sys
label, on, off, threshold = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
overhead = (on - off) / off * 100.0
print(f"[{label}] on:  {on:.0f} ns/iter")
print(f"[{label}] off: {off:.0f} ns/iter")
print(f"[{label}] overhead: {overhead:+.2f}% (threshold {threshold}%)")
if overhead > threshold:
    print(f"FAIL: {label} overhead exceeds threshold", file=sys.stderr)
    sys.exit(1)
print("OK")
EOF
}

# Telemetry sink attached vs detached, serve hot path. Both variants
# live in the same binary. One Handle() takes 30-60 us, and on a shared
# host its speed moves by 10-50% from process to process (each
# process lands on a different memory layout and neighbour load) and by
# ~10% from repetition to repetition, so one process's two minima differ
# by up to ±15% with no sink cost at all. The gate therefore samples
# SERVE_PROCS processes. Each runs SERVE_REPS short repetitions of both
# variants, randomly interleaved, and yields the ratio of the two minima.
# The gate compares the median process: processes stay
# independent samples and a few outlier layouts cannot decide it.
SERVE_PROCS=21
SERVE_REPS=20
SERVE_MIN_TIME=0.02
SERVE_RUNS=()  # one "ratio tel_ns bare_ns" line per process
for _ in $(seq "$SERVE_PROCS"); do
  SERVE_RUNS+=("$(
    build/bench/bench_perf_micro --threads=1 \
      '--benchmark_filter=^BM_ServeHandle(Telemetry)?$' \
      "--benchmark_repetitions=${SERVE_REPS}" \
      "--benchmark_min_time=${SERVE_MIN_TIME}" \
      --benchmark_enable_random_interleaving=true \
      --benchmark_format=json 2>/dev/null |
      python3 -c '
import json, sys
doc = json.load(sys.stdin)
best = {}
for b in doc["benchmarks"]:
    if b.get("run_type") == "iteration":
        name, t = b["run_name"], b["real_time"]
        best[name] = min(best.get(name, t), t)
tel, bare = best["BM_ServeHandleTelemetry"], best["BM_ServeHandle"]
print(f"{tel / bare:.4f} {tel:.0f} {bare:.0f}")
'
  )")
done
printf '[serve telemetry] process min ratio: %s\n' \
  "$(printf '%s\n' "${SERVE_RUNS[@]}" | cut -d' ' -f1 | sort -g | tr '\n' ' ')"
read -r _ TEL_NS BARE_NS < <(printf '%s\n' "${SERVE_RUNS[@]}" | sort -g |
  sed -n "$(( (SERVE_PROCS + 1) / 2 ))p")
compare "serve telemetry (median process)" "$TEL_NS" "$BARE_NS"
