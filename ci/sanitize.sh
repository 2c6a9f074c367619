#!/usr/bin/env bash
# Builds the whole tree under AddressSanitizer + UBSan and runs the test
# suite, then builds the parallel-layer-relevant tests under
# ThreadSanitizer and runs them with 4 threads (PRIVREC_THREADS=4, set in
# the tsan test preset) so chunk claiming, the job handshake and the
# ordered reduction are exercised with real cross-thread interleavings.
# Any sanitizer finding aborts the offending test, so a green run here
# means the suite is clean under all three.
#
# Usage: ci/sanitize.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"
ctest --preset asan-ubsan -j"$(nproc)" "$@"

# Forced-scalar pass: PRIVREC_NO_SIMD=1 pins the kernel dispatch to the
# scalar reference (a runtime switch, mirroring PRIVREC_NO_MMAP — same
# build). The whole suite must stay green and, because every kernel is
# bit-identical across dispatch levels, every golden in it must match
# without re-baselining.
PRIVREC_NO_SIMD=1 ctest --preset asan-ubsan -j"$(nproc)" "$@"
echo "forced-scalar pass: full suite green with PRIVREC_NO_SIMD=1"

# ThreadSanitizer pass: the tests that drive the deterministic parallel
# layer (common/parallel.h), the lock-free metrics/tracing fast paths
# (src/obs) and the tiled reconstruction's per-thread group scratch
# (artifact/reconstruct.h) through their concurrent paths.
TSAN_TESTS="parallel_test|core_test|similarity_test|obs_test|reconstruct_test"
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target parallel_test core_test similarity_test obs_test reconstruct_test
ctest --preset tsan -j"$(nproc)" -R "^(${TSAN_TESTS})\$" "$@"

# Chaos pass: the serving-runtime soak — >= 500 hot-swap iterations mixing
# corrupt artifacts and injected I/O faults while 4 request threads hammer
# the runtime (PRIVREC_THREADS=4 in the tsan preset keeps the parallel
# layer concurrent too). TSan shakes the epoch-publication and admission
# paths for real races; the asan-ubsan full-suite run above already covers
# the same soak for memory bugs. serve_test rides along for the breaker /
# admission / swap state machines.
cmake --build --preset tsan -j"$(nproc)" --target serve_test serve_chaos_test
PRIVREC_CHAOS_ITERS=500 \
  ctest --preset tsan -j"$(nproc)" -R "^(serve_test|serve_chaos_test)\$" "$@"
echo "chaos soak: 500 swap iterations with faults, clean under TSan"

# Streaming chaos pass: the churn soak — grow/ingest/crash/restart/
# republish/swap cycles with 4 request threads hammering the runtime while
# the pipeline journals, publishes and hot-swaps. TSan shakes the
# WAL-ingest / publish / epoch-swap interleavings; stream_test rides along
# for the journal replay and scheduler state machines.
cmake --build --preset tsan -j"$(nproc)" --target stream_test stream_soak_test
PRIVREC_CHAOS_ITERS=500 \
  ctest --preset tsan -j"$(nproc)" -R "^(stream_test|stream_soak_test)\$" "$@"
echo "stream soak: 500 churn iterations with crashes and faults, clean under TSan"

# PRIVREC_OBS=OFF pass: the no-op shells must keep the whole suite green,
# and the compile-out must be real — no registry or tracer machinery may
# survive into the obs library's object code.
cmake --preset no-obs
cmake --build --preset no-obs -j"$(nproc)"
ctest --preset no-obs -j"$(nproc)" "$@"
if nm --defined-only build-noobs/src/obs/libprivrec_obs.a 2>/dev/null \
    | grep -E "MetricsRegistry|Tracer|SpanScope" ; then
  echo "FAIL: PRIVREC_OBS=OFF build still defines obs runtime symbols" >&2
  exit 1
fi
echo "no-obs symbol check: clean (metrics registry and tracer compiled out)"

# Two-phase pipeline determinism pass: build→save→load→serve must be
# byte-stable. At K = 1 and K = 3 the manifest and every shard file its
# table names must be byte-identical across runs and thread counts, and
# serving the saved artifact — mapped, or via the PRIVREC_NO_MMAP read
# fallback, at a third thread count — must reproduce the recommendations
# of an in-memory run (no --artifact-out) bit for bit. (The asan-ubsan
# tree is already built above; running under ASan also shakes the
# save/open paths for memory bugs.)
SCRATCH=artifact-scratch
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
FP=build-asan-ubsan/examples/file_pipeline
run_pipeline() {  # run_pipeline <tag> <threads> <extra args...>
  local tag="$1" threads="$2"
  shift 2
  "$FP" --social="$SCRATCH/social.tsv" --prefs="$SCRATCH/prefs.tsv" \
    --epsilon=0.5 --top_n=10 --threads="$threads" \
    --out="$SCRATCH/recs_$tag.tsv" "$@" > "$SCRATCH/log_$tag.txt"
}
# The shard files a run's saved manifest names, as file_pipeline prints
# its shard table after the save.
shard_files() {  # shard_files <tag>
  sed -n 's/^  shard file: \([^ ]*\) .*/\1/p' "$SCRATCH/log_$1.txt"
}
run_pipeline mem 1
for k in 1 3; do
  # The shard table names shard files relative to the manifest, so
  # byte-comparison needs the same artifact name: one subdirectory per run.
  for run in a b t2; do mkdir -p "$SCRATCH/k$k$run"; done
  run_pipeline "k${k}a" 1 --artifact-out="$SCRATCH/k${k}a/model.pvram" \
    --shards="$k"
  run_pipeline "k${k}b" 1 --artifact-out="$SCRATCH/k${k}b/model.pvram" \
    --shards="$k"
  run_pipeline "k${k}t2" 2 --artifact-out="$SCRATCH/k${k}t2/model.pvram" \
    --shards="$k"
  shards=$(shard_files "k${k}a")
  if [ "$(printf '%s\n' "$shards" | grep -c .)" -ne "$k" ]; then
    echo "FAIL: K=$k manifest names $(printf '%s\n' "$shards" | grep -c .)" \
         "shard files" >&2
    exit 1
  fi
  for run in "k${k}b" "k${k}t2"; do
    if [ "$(shard_files "$run")" != "$shards" ]; then
      echo "FAIL: K=$k shard tables differ between k${k}a and $run" >&2
      exit 1
    fi
    for part in model.pvram $shards; do
      cmp "$SCRATCH/k${k}a/$part" "$SCRATCH/$run/$part"
    done
  done
  run_pipeline "k${k}replay" 4 --artifact-in="$SCRATCH/k${k}a/model.pvram"
  (export PRIVREC_NO_MMAP=1
   run_pipeline "k${k}read" 4 --artifact-in="$SCRATCH/k${k}a/model.pvram")
  for run in a b t2 replay read; do
    cmp "$SCRATCH/recs_mem.tsv" "$SCRATCH/recs_k$k$run.tsv"
  done
done
rm -rf "$SCRATCH"
echo "artifact determinism: manifest and named shards byte-stable across" \
     "runs and thread counts at K=1 and K=3; mapped and read-fallback" \
     "serving match the in-memory recommendations"

# Privacy isolation: the serving library must stay free of preference-
# and social-graph code — the CMake allowlist enforces the link layer,
# this enforces the object code.
if nm --defined-only build-asan-ubsan/src/artifact/libprivrec_serving.a \
    2>/dev/null | grep -E "PreferenceGraph|SocialGraph" ; then
  echo "FAIL: privrec_serving object code references the graph types" >&2
  exit 1
fi
echo "serving symbol check: clean (no preference/social graph code)"

# The serving runtime (src/serve) inherits the same isolation guarantee.
if nm --defined-only build-asan-ubsan/src/serve/libprivrec_serve.a \
    2>/dev/null | grep -E "PreferenceGraph|SocialGraph" ; then
  echo "FAIL: privrec_serve object code references the graph types" >&2
  exit 1
fi
echo "serve runtime symbol check: clean (no preference/social graph code)"

# Crash-recovery matrix: kill the streaming service at every journaling
# stage (WAL append/fsync, ledger intent/commit, post-journal window,
# artifact write/rename/reopen), restart, and require bit-identical
# convergence with clean ε audits (see ci/stream_soak.sh for the matrix).
# Runs against the asan-ubsan tree so every crash path is also
# memory-checked.
ci/stream_soak.sh build-asan-ubsan

# Rated-load SLO gate: open-loop load + swap storm against the serving
# runtime, with determinism, budget-enforcement and TSan wall-mode gates
# (see ci/serve_slo.sh for the budgets and methodology).
ci/serve_slo.sh

# Kernel performance gate: the dispatched SIMD reconstruction kernels
# must clear their speedup floors over the scalar references, and
# PRIVREC_NO_SIMD must verifiably pin dispatch to scalar (see
# ci/perf_gate.sh for floors and methodology).
ci/perf_gate.sh
