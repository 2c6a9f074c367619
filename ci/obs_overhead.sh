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
# cluster, per trial, per request — never inside per-element loops. Both
# timing gates sample many processes, each reporting its minimum over
# short repetitions, and compare central values over processes, which
# keeps the check stable on noisy hosts. Widen the threshold with
# OBS_OVERHEAD_PCT if a box is too jittery to resolve 3%.
#
# Usage: ci/obs_overhead.sh [processes]
#   processes: gate 1's alternating processes per binary (default 201),
#   each running HOT_REPS repetitions. Gate 2 always samples SERVE_PROCS
#   processes of SERVE_REPS repetitions each.
set -euo pipefail
cd "$(dirname "$0")/.."

HOT_PROCS="${1:-201}"
THRESHOLD="${OBS_OVERHEAD_PCT:-3}"

cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)" --target bench_perf_micro
cmake --preset no-obs >/dev/null
cmake --build --preset no-obs -j"$(nproc)" --target bench_perf_micro bench_serve_load

hot_min() {  # hot_min <binary> -> min ns/iter over one process's repetitions
  "$1" --threads=1 \
    "--benchmark_filter=^${HOT}\$" \
    "--benchmark_repetitions=${HOT_REPS}" \
    "--benchmark_min_time=${HOT_MIN_TIME}" \
    --benchmark_format=json 2>/dev/null |
    python3 -c '
import json, sys
print(min(b["real_time"] for b in json.load(sys.stdin)["benchmarks"]
          if b.get("run_type") == "iteration"))
'
}

trimmed_mean() {  # trimmed_mean <value>... -> mean of the middle 80%
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END {
    lo = int(NR / 10)
    for (k = lo + 1; k <= NR - lo; ++k) sum += v[k]
    printf "%.0f", sum / (NR - 2 * lo) }'
}

quartiles() {  # quartiles <value>... -> "p25 / median / p75"
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END {
    printf "%.0f / %.0f / %.0f", v[int((NR + 3) / 4)], v[int((NR + 1) / 2)],
      v[int((3 * NR + 1) / 4)] }'
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
# gate 2's do. One iteration takes 5-8 ms, and a process keeps the speed
# it starts with: repetitions inside a process agree to a few percent,
# while the processes of one binary fall into a fast and a slow mode
# ~20% apart (with or without ASLR, pinned to one CPU or not), so the
# minima of 7 single-run processes per side read -8.5% to +8.9% on an
# unchanged tree. The gate therefore alternates HOT_PROCS processes per
# binary (on, off, on, off, ...), so drift over the minutes of the gate
# lands on both sides alike. Each process runs HOT_REPS short repetitions
# and reports its minimum. The gate compares the sides' means of the
# middle 80% of those minima: with two modes the median sits between
# them and jumps with their mix (the median of 201 processes per side
# read +3.76% on an unchanged tree), while the mean moves only by the
# mix times the gap, and the trim drops processes a neighbour stalled.
HOT=BM_ClusterRecommendPerUser
HOT_REPS=3
HOT_MIN_TIME=0.02
ON_RUNS=()
OFF_RUNS=()
for _ in $(seq "$HOT_PROCS"); do
  ON_RUNS+=("$(hot_min build/bench/bench_perf_micro)")
  OFF_RUNS+=("$(hot_min build-noobs/bench/bench_perf_micro)")
done
echo "[obs layer] on process minima p25 / median / p75 (ns/iter):  $(quartiles "${ON_RUNS[@]}")"
echo "[obs layer] off process minima p25 / median / p75 (ns/iter): $(quartiles "${OFF_RUNS[@]}")"
compare "obs layer (trimmed mean)" "$(trimmed_mean "${ON_RUNS[@]}")" \
  "$(trimmed_mean "${OFF_RUNS[@]}")"

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
