#!/usr/bin/env bash
# Asserts that observability stays off the hot paths:
#
#   1. The always-on obs layer (metrics/tracing) costs less than
#      OBS_OVERHEAD_PCT (default 3%) on the reconstruction hot loop
#      (BM_ClusterRecommendPerUser), comparing the default build against
#      a PRIVREC_OBS=OFF build of the same revision.
#   2. An attached ServeTelemetry sink costs less than the same threshold
#      on the serve hot path, comparing BM_ServeHandleTelemetry against
#      BM_ServeHandle inside the default build (the sink folds one wide
#      event per request under a single mutex — never per user or per
#      item).
#   3. The PRIVREC_OBS=OFF build still runs the full load harness with
#      telemetry flags: wide events, rolling windows and the JSONL stream
#      are value types that must keep working with the registry compiled
#      out.
#
# Instrumentation sits at record/release granularity — per chunk, per
# cluster, per trial, per request — never inside per-element loops. Each
# gate compares minima of interleaved runs, which keeps the check stable
# on noisy hosts: gate 1 the minimum over several runs per side, gate 2
# the median over processes of each process's ratio of minima. Widen the
# threshold with OBS_OVERHEAD_PCT if a box is too jittery to resolve 3%.
#
# Usage: ci/obs_overhead.sh [repetitions]
#   repetitions: gate 1's alternating runs per side (default 7). Gate 2
#   always samples SERVE_PROCS processes of SERVE_REPS repetitions each.
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-7}"
THRESHOLD="${OBS_OVERHEAD_PCT:-3}"

cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)" --target bench_perf_micro
cmake --preset no-obs >/dev/null
cmake --build --preset no-obs -j"$(nproc)" --target bench_perf_micro bench_serve_load

run_once() {  # run_once <binary> <benchmark name>  -> ns/iter of one run
  "$1" --threads=1 \
    "--benchmark_filter=^$2\$" \
    --benchmark_format=json 2>/dev/null |
    python3 -c '
import json, sys
print(json.load(sys.stdin)["benchmarks"][0]["real_time"])
'
}

min_of() {  # min_of <value>...
  printf '%s\n' "$@" | sort -g | head -n 1
}

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

# Gate 1: obs layer vs compiled-out, reconstruction hot loop. The two
# sides are two binaries, so they cannot interleave inside one process as
# gate 2's do. The script alternates the binaries run by run instead
# (on, off, on, off, ...), so drift over the minutes of the gate lands on
# both sides alike, and compares each side's minimum, as gate 2 does.
HOT=BM_ClusterRecommendPerUser
ON_RUNS=()
OFF_RUNS=()
for _ in $(seq "$REPS"); do
  ON_RUNS+=("$(run_once build/bench/bench_perf_micro "$HOT")")
  OFF_RUNS+=("$(run_once build-noobs/bench/bench_perf_micro "$HOT")")
done
echo "[obs layer] on runs (ns/iter):  ${ON_RUNS[*]}"
echo "[obs layer] off runs (ns/iter): ${OFF_RUNS[*]}"
compare "obs layer" "$(min_of "${ON_RUNS[@]}")" "$(min_of "${OFF_RUNS[@]}")"

# Gate 2: telemetry sink attached vs detached, serve hot path. Both
# variants live in the same binary. One Handle() takes 30-60 us, and on a
# shared host its speed moves by 10-50% from process to process (each
# process lands on a different memory layout and neighbour load) and by
# ~10% from repetition to repetition, so one process's two minima differ
# by up to ±15% with no sink cost at all. The gate therefore samples
# SERVE_PROCS processes. Each runs SERVE_REPS short repetitions of both
# variants, randomly interleaved, and yields the ratio of the two minima,
# as before. The gate compares the median process: processes stay
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

# Gate 3: the no-obs build serves the telemetry surface end to end.
SCRATCH=obs-overhead-scratch
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
build-noobs/bench/bench_serve_load --scratch-dir="$SCRATCH/work" \
  --load-rps=400 --load-duration-ms=500 --load-seed=7 \
  --telemetry-jsonl="$SCRATCH/events.jsonl" \
  --statusz-out="$SCRATCH/statusz.txt" \
  --load-report="$SCRATCH/report.json" > "$SCRATCH/log.txt" 2>&1
grep -q '"telemetry": {' "$SCRATCH/report.json"
grep -q 'privrec serve statusz' "$SCRATCH/statusz.txt"
rm -rf "$SCRATCH"
echo "no-obs serve harness: telemetry/statusz surface intact with obs compiled out"
