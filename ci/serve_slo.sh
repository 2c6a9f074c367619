#!/usr/bin/env bash
# Rated-load SLO gate for the serving runtime: drives bench_serve_load's
# open-loop harness (600 rps rated load, 4x bursts, swap storm with
# corrupt artifacts and armed faults) and fails the build when the run
# breaches its latency/shed/rollback budgets or produces a single
# correctness violation (a kOk response differing from the pinned
# epoch's offline answer).
#
# Gates 1-4 serve K = 1 .pvram artifacts (bench_serve_load's default),
# gate 5 serves K = 3:
#   1. Determinism — the same seed must produce a bit-identical report
#      (virtual-time mode; only the wall-clock swap pauses are exempt).
#   2. SLO pass — the rated load meets its budgets (exit 0).
#   3. SLO enforcement — an absurd budget must fail the run (exit 2, not
#      a crash and not a silent pass).
#   4. TSan wall mode — the same schedule on 4 real request threads plus
#      a live swap-storm thread, under ThreadSanitizer.
#   5. Sharded — the rated load over K = 3 artifacts, within budgets and
#      deterministic.
#
# Usage: ci/serve_slo.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH=serve-slo-scratch
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

cmake --preset default
cmake --build --preset default -j"$(nproc)"
BENCH=build/bench/bench_serve_load

# Gate 0: the tier-1 fast lane. Every test is labeled (tier1 everywhere,
# plus slow/chaos on the soaks) with a per-test TIMEOUT, so a hung swap
# or a deadlocked admission queue fails the lane instead of wedging CI.
ctest --preset default -L tier1 -j"$(nproc)" --output-on-failure
echo "tier1 lane: labeled test suite green within per-test timeouts"

# The rated-load invocation: 600 rps against ~890 rps of slot capacity,
# so steady state is comfortable and only the 4x burst windows shed.
run_rated() {  # run_rated <tag> <extra args...>
  local tag="$1"
  shift
  "$BENCH" --scratch-dir="$SCRATCH/work_$tag" \
    --load-rps=600 --load-duration-ms=2000 --load-seed=7 \
    --load-swap-storm --load-swap-period-ms=250 \
    --telemetry-jsonl="$SCRATCH/events_$tag.jsonl" \
    --load-report="$SCRATCH/report_$tag.json" "$@" \
    > "$SCRATCH/log_$tag.txt" 2>&1
}

# Gate 1: determinism. Two fresh processes, same seed: every scheduled
# arrival, shed decision, retry hint and histogram bucket must match bit
# for bit. Only results.swap.pause_ms (wall-clock per Activate) is
# blanked before comparing — everything else in the report is covered.
run_rated det1
run_rated det2
normalize() { sed 's/"pause_ms": {[^}]*}/"pause_ms": {}/' "$1"; }
if ! diff <(normalize "$SCRATCH/report_det1.json") \
          <(normalize "$SCRATCH/report_det2.json") ; then
  echo "FAIL: same seed produced different load reports" >&2
  exit 1
fi
# The telemetry wide-event stream is part of the determinism contract:
# sampling is keyed off request ids, time is virtual, so the JSONL file
# must match byte for byte — no normalization allowed.
cmp "$SCRATCH/events_det1.jsonl" "$SCRATCH/events_det2.jsonl"
echo "serve load determinism: two runs bit-identical modulo swap pauses"

# Gate 2: the rated load passes its SLO budgets (measured ~5.4ms p50,
# ~15.4ms p99, 16% shed during bursts, 3/7 swaps rejected by design —
# budgets leave ~2x headroom so scheduler noise cannot flake the gate).
run_rated slo \
  --load-slo-p50-ms=12 --load-slo-p99-ms=30 --load-slo-p999-ms=40 \
  --load-slo-shed-rate=0.30 --load-slo-rollback-rate=0.60
grep -q '"pass": true' "$SCRATCH/report_slo.json"
echo "serve SLO gate: rated load within budgets"

# Gate 3: enforcement is real — an absurd p99 budget must exit 2.
status=0
run_rated breach --load-slo-p99-ms=0.001 || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: SLO breach exited $status, expected 2" >&2
  exit 1
fi
grep -q 'SLO FAIL' "$SCRATCH/log_breach.txt"
echo "serve SLO enforcement: breached budget exits 2 with diagnostics"

# Gate 4: wall-clock mode under ThreadSanitizer — 4 request threads and
# the storm thread hammer the real admission queue and epoch pinning.
# Latency budgets stay off (real scheduling jitter); the zero-tolerance
# lines (no correctness violations, ok > 0) still apply.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" --target bench_serve_load
build-tsan/bench/bench_serve_load --scratch-dir="$SCRATCH/work_tsan" \
  --load-rps=300 --load-duration-ms=2000 --load-seed=7 \
  --load-swap-storm --load-swap-period-ms=250 \
  --load-wall --load-threads=4 \
  --load-report="$SCRATCH/report_tsan.json" \
  > "$SCRATCH/log_tsan.txt" 2>&1
grep -q '"pass": true' "$SCRATCH/report_tsan.json"
echo "serve wall mode: 4 threads + swap storm clean under TSan"

# Gate 5: the same rated load served from K = 3 artifacts
# (--load-shards=3: every good generation is a manifest plus three shard
# files, and the corrupt ones are damaged manifest copies naming them).
# The swap storm exercises multi-shard admission, corrupt-manifest
# rejection and epoch rollback; determinism and budgets are gate 2's.
run_rated shards --load-shards=3 \
  --load-slo-p50-ms=12 --load-slo-p99-ms=30 --load-slo-p999-ms=40 \
  --load-slo-shed-rate=0.30 --load-slo-rollback-rate=0.60
grep -q '"pass": true' "$SCRATCH/report_shards.json"
run_rated shards2 --load-shards=3 \
  --load-slo-p50-ms=12 --load-slo-p99-ms=30 --load-slo-p999-ms=40 \
  --load-slo-shed-rate=0.30 --load-slo-rollback-rate=0.60
if ! diff <(normalize "$SCRATCH/report_shards.json") \
          <(normalize "$SCRATCH/report_shards2.json") ; then
  echo "FAIL: sharded load run not deterministic" >&2
  exit 1
fi
echo "serve sharded gate: mmap-served load within budgets, deterministic"

# Gate 6: SLO burn-rate alerting. Baseline first: a per-window p99
# budget with ~2x headroom over the measured window quantiles must stay
# silent across the whole run — zero alerts on a healthy system is as
# much a part of the contract as firing on a breach.
run_rated burn_ok --telemetry-window-p99-ms=40 \
  --telemetry-burn-lookback=8 --telemetry-burn-threshold=0.25
python3 - "$SCRATCH/report_burn_ok.json" <<'EOF'
import json, sys
tel = json.load(open(sys.argv[1]))["telemetry"]
assert tel is not None, "telemetry block missing from report"
assert tel["burn_alerts"] == 0, f"baseline fired {tel['burn_alerts']} burn alerts"
assert tel["recorded"] > 0 and tel["windows"]["windows"], "no windows recorded"
EOF

# Then enforcement: an absurd per-window p99 budget must breach every
# window, push the burn rate through the threshold, and interleave alert
# lines into the JSONL stream — without failing the run (burn alerts are
# a paging signal, not the SLO verdict; exit codes stay with --load-slo-*).
run_rated burn_hot --telemetry-window-p99-ms=0.001 \
  --telemetry-burn-lookback=8 --telemetry-burn-threshold=0.25
python3 - "$SCRATCH/report_burn_hot.json" <<'EOF'
import json, sys
tel = json.load(open(sys.argv[1]))["telemetry"]
assert tel["burn_alerts"] > 0, "tight window budget raised no burn alerts"
assert tel["burn_rate"] > 0.25, f"burn rate {tel['burn_rate']} not above threshold"
breached = [w for w in tel["windows"]["windows"] if w.get("breach")]
assert breached, "no window marked as breaching"
EOF
grep -q '"type": "alert"' "$SCRATCH/events_burn_hot.jsonl"
echo "serve burn-rate gate: silent on baseline, alerts on injected breach"

rm -rf "$SCRATCH"
echo "serve_slo: all gates green"
