// Open-loop rated-load harness for the serving runtime (the online half
// of the build/serve split), with optional swap storms and SLO
// enforcement. This is the driver behind BENCH_serve.json and
// ci/serve_slo.sh.
//
// The driver builds a tiny synthetic release (two good artifact
// generations; under --load-swap-storm also a bit-flipped and a truncated
// copy), boots a ServeRuntime, and drives it with a deterministic
// open-loop schedule:
//
//   ./bench_serve_load --load-rps=2000 --load-duration-ms=2000
//                      --load-seed=1 --load-zipf-s=1.1
//                      --load-users-per-request=4
//                      --load-burst-factor=4 --load-burst-period-ms=500
//                      --load-burst-duration-ms=50
//                      --load-swap-period-ms=250 --load-swap-storm
//                      --load-slo-p99-ms=... --load-slo-p999-ms=...
//                      --load-slo-shed-rate=... --load-slo-rollback-rate=...
//                      --load-report=BENCH_serve.json
//                      [--load-wall --load-threads=4]
//                      [--serve-max-concurrency=4 --serve-queue-depth=8 ...]
//                      [--scratch-dir=serve-load-scratch]
//                      [--load-shards=K]   # serve sharded .pvram artifacts
//                                          # through the mmap zero-copy path
//                      [--telemetry-jsonl=PATH      # wide-event stream
//                       --telemetry-sample-every=16 --telemetry-slow-ms=100
//                       --telemetry-window-ms=250
//                       --telemetry-window-p99-ms=... --telemetry-window-shed-rate=...
//                       --telemetry-burn-lookback=8 --telemetry-burn-threshold=0.25
//                       --statusz-out=PATH]         # final statusz page
//
// Default mode is the virtual-time simulation: same seed -> same arrival
// schedule, same shed/expired/degraded counts, same latency histogram,
// bit for bit (only the wall-clock swap pauses vary run to run).
// --load-wall switches to real threads + blocking Handle() against the
// same schedule — the TSan-able companion.
//
// Exit status: 0 on SLO pass, 1 on setup/flag errors, 2 on SLO failure.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/builder.h"
#include "artifact/model_io.h"
#include "artifact/shard_layout.h"
#include "common/driver_flags.h"
#include "common/flags.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "loadgen/harness.h"
#include "loadgen/oracle.h"
#include "loadgen/report.h"
#include "obs/export.h"
#include "serve/clock.h"
#include "serve/runtime.h"
#include "serve/statusz.h"
#include "serve/telemetry.h"
#include "similarity/common_neighbors.h"

namespace {

namespace fs = std::filesystem;
using namespace privrec;

constexpr int64_t kUsers = 60;
constexpr int64_t kItems = 40;
constexpr double kEpsilon = 0.7;

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const ServeFlagSettings serve_settings = ApplyServeFlags(flags);
  const LoadFlagSettings load_settings = ApplyLoadFlags(flags);
  const TelemetryFlagSettings tel_settings = ApplyTelemetryFlags(flags);
  const std::string scratch =
      flags.GetString("scratch-dir", "serve-load-scratch");
  const int64_t load_shards = flags.GetInt("load-shards", 0);
  if (!flags.Validate()) return 1;

  // ---- Offline side: build the artifact generations the run swaps over.
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  data::Dataset dataset = data::MakeTinyDataset(kUsers, kItems, /*seed=*/7);
  auto workload = similarity::SimilarityWorkload::Compute(
      dataset.social, similarity::CommonNeighbors());
  auto louvain =
      community::RunLouvain(dataset.social, {.restarts = 2, .seed = 3});

  auto build = [&](const std::string& name,
                   uint64_t seed) -> std::string {
    artifact::ModelArtifactBuilder builder(&dataset.social,
                                           &dataset.preferences);
    builder.SetPartition(&louvain.partition);
    builder.SetWorkload(&workload);
    artifact::BuildOptions build_options;
    build_options.epsilon = kEpsilon;
    build_options.seed = seed;
    auto model = builder.Build(build_options);
    if (!model.ok()) {
      std::fprintf(stderr, "artifact build failed: %s\n",
                   model.status().ToString().c_str());
      return "";
    }
    // With --load-shards the generations are sharded .pvram sets and the
    // runtime serves them through the mmap zero-copy path; the rest of
    // the harness is identical (Activate and the oracle both sniff).
    const std::string path =
        (fs::path(scratch) / (name + (load_shards > 0 ? ".pvram" : ".pvra")))
            .string();
    Status saved =
        load_shards > 0
            ? serving::SaveShardedArtifact(*model, path,
                                           {.shards = load_shards})
            : serving::SaveArtifact(*model, path);
    if (!saved.ok()) {
      std::fprintf(stderr, "artifact save failed: %s\n",
                   saved.ToString().c_str());
      return "";
    }
    return path;
  };
  const std::string good_a = build("good_a", 101);
  const std::string good_b = build("good_b", 202);
  if (good_a.empty() || good_b.empty()) return 1;

  loadgen::SwapStormSpec storm;
  storm.period_ms = load_settings.swap_period_ms;
  if (load_settings.swap_storm && storm.period_ms <= 0) {
    storm.period_ms = 250;
  }
  storm.good = {good_a, good_b};
  if (load_settings.swap_storm) {
    const std::string bitflip =
        (fs::path(scratch) / "bitflip.pvra").string();
    const std::string trunc = (fs::path(scratch) / "trunc.pvra").string();
    std::string bytes = ReadAllBytes(good_a);
    if (bytes.size() < 400) {
      std::fprintf(stderr, "artifact unexpectedly small\n");
      return 1;
    }
    bytes[300] = static_cast<char>(bytes[300] ^ 0x20);
    WriteAllBytes(bitflip, bytes);
    std::string half = ReadAllBytes(good_b);
    half.resize(half.size() / 2);
    WriteAllBytes(trunc, half);
    storm.corrupt = {bitflip, trunc};
    storm.arm_faults = true;
  }

  // ---- Online side: runtime, telemetry sink, oracle, harness.
  serve::ManualClock virtual_clock;
  serve::ServeTelemetryOptions tel_options;
  tel_options.sample_every = tel_settings.sample_every;
  tel_options.slow_ms = tel_settings.slow_ms;
  tel_options.window_ms = tel_settings.window_ms;
  tel_options.budget.p99_ms = tel_settings.window_p99_ms;
  tel_options.budget.max_shed_rate = tel_settings.window_shed_rate;
  tel_options.budget.lookback = tel_settings.burn_lookback;
  tel_options.budget.burn_threshold = tel_settings.burn_threshold;
  serve::ServeTelemetry telemetry(tel_options);
  serve::ServeRuntimeOptions options;
  options.telemetry = &telemetry;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = kEpsilon;
  options.admission.max_concurrency = serve_settings.max_concurrency;
  options.admission.queue_depth = serve_settings.queue_depth;
  options.breaker.failure_threshold = serve_settings.breaker_failures;
  options.breaker.cooldown_ms = serve_settings.breaker_cooldown_ms;
  if (!load_settings.wall) options.clock = &virtual_clock;
  serve::ServeRuntime runtime(options);
  Status activated = runtime.Activate(good_a);
  if (!activated.ok()) {
    std::fprintf(stderr, "initial activate failed: %s\n",
                 activated.ToString().c_str());
    return 1;
  }

  auto oracle =
      loadgen::LoadOracle::Build({good_a, good_b}, options.swap.spec);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle build failed: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }

  loadgen::LoadRunOptions run;
  run.load.rps = load_settings.rps;
  run.load.duration_ms = load_settings.duration_ms;
  run.load.seed = static_cast<uint64_t>(load_settings.seed);
  run.load.num_users = kUsers;
  run.load.zipf_s = load_settings.zipf_s;
  run.load.users_per_request = load_settings.users_per_request;
  run.load.burst_factor = load_settings.burst_factor;
  run.load.burst_period_ms = load_settings.burst_period_ms;
  run.load.burst_duration_ms = load_settings.burst_duration_ms;
  run.storm = storm;
  run.wall_threads = load_settings.threads;

  loadgen::LoadHarness harness(&runtime, oracle->get(), run);
  loadgen::LoadSummary summary = load_settings.wall
                                     ? harness.RunWall()
                                     : harness.RunVirtual(&virtual_clock);

  // Close the final partial window on the clock the run actually used;
  // in virtual mode this makes the window series a pure function of the
  // schedule.
  telemetry.Flush(load_settings.wall
                      ? serve::SteadyClock::Instance()->NowMs()
                      : virtual_clock.NowMs());

  loadgen::SloBudget budget;
  budget.p50_ms = load_settings.slo_p50_ms;
  budget.p99_ms = load_settings.slo_p99_ms;
  budget.p999_ms = load_settings.slo_p999_ms;
  budget.max_shed_rate = load_settings.slo_shed_rate;
  budget.max_rollback_rate = load_settings.slo_rollback_rate;
  loadgen::SloVerdict verdict = loadgen::EvaluateSlo(budget, summary);

  loadgen::TelemetryReport tel_report;
  tel_report.recorded = telemetry.recorded();
  tel_report.sampled = telemetry.sampled();
  tel_report.dropped = telemetry.dropped_events();
  tel_report.sample_every = tel_options.sample_every;
  tel_report.window_ms = tel_options.window_ms;
  tel_report.burn_rate = telemetry.burn_rate();
  tel_report.series = telemetry.series();

  const std::string mode = load_settings.wall ? "wall" : "virtual";
  const std::string json = loadgen::LoadReportJson(
      run.load, storm.period_ms, summary, budget, verdict, mode,
      load_settings.wall ? load_settings.threads : 1, load_shards,
      &tel_report);
  if (!load_settings.report.empty()) {
    std::string error;
    if (!obs::WriteTextFile(load_settings.report, json, &error)) {
      std::fprintf(stderr, "report write failed: %s\n", error.c_str());
      return 1;
    }
  }
  if (!tel_settings.jsonl.empty()) {
    std::string error;
    if (!obs::WriteTextFile(tel_settings.jsonl, telemetry.EventsJsonl(),
                            &error)) {
      std::fprintf(stderr, "telemetry jsonl write failed: %s\n",
                   error.c_str());
      return 1;
    }
  }
  if (!tel_settings.statusz_out.empty()) {
    std::string error;
    const serve::RuntimeIntrospection status = runtime.Introspect(
        load_settings.wall ? -1 : virtual_clock.NowMs());
    if (!obs::WriteTextFile(tel_settings.statusz_out,
                            serve::StatuszText(status), &error)) {
      std::fprintf(stderr, "statusz write failed: %s\n", error.c_str());
      return 1;
    }
  }

  std::fprintf(stderr,
               "bench_serve_load (%s): scheduled=%lld ok=%lld shed=%lld "
               "expired=%lld degraded=%lld violations=%lld\n",
               mode.c_str(),
               static_cast<long long>(summary.scheduled),
               static_cast<long long>(summary.ok),
               static_cast<long long>(summary.shed),
               static_cast<long long>(summary.expired),
               static_cast<long long>(summary.degraded),
               static_cast<long long>(summary.correctness_violations));
  std::fprintf(stderr,
               "  latency p50=%.3fms p99=%.3fms p999=%.3fms | swaps "
               "%lld/%lld ok, %lld rollbacks | shed_rate=%.4f\n",
               summary.latency.Quantile(0.50),
               summary.latency.Quantile(0.99),
               summary.latency.Quantile(0.999),
               static_cast<long long>(summary.swap_ok),
               static_cast<long long>(summary.swap_attempts),
               static_cast<long long>(summary.rollbacks),
               summary.shed_rate);
  std::fprintf(stderr,
               "  telemetry: recorded=%lld sampled=%lld dropped=%lld | "
               "windows=%lld breaches=%lld burn_alerts=%lld "
               "burn_rate=%.4f\n",
               static_cast<long long>(telemetry.recorded()),
               static_cast<long long>(telemetry.sampled()),
               static_cast<long long>(telemetry.dropped_events()),
               static_cast<long long>(tel_report.series.windows.size()),
               static_cast<long long>(telemetry.window_breaches()),
               static_cast<long long>(telemetry.burn_alerts()),
               telemetry.burn_rate());
  if (!verdict.pass) {
    for (const std::string& failure : verdict.failures) {
      std::fprintf(stderr, "SLO FAIL: %s\n", failure.c_str());
    }
    return 2;
  }
  std::fprintf(stderr, "SLO: pass\n");
  return 0;
}
