// Open-loop rated-load harness for the serving runtime (the online half
// of the build/serve split), with optional swap storms and SLO
// enforcement. This is the driver behind BENCH_serve.json and
// ci/serve_slo.sh.
//
// The driver builds a tiny synthetic release (two good .pvram artifact
// generations of K shards each; under --load-swap-storm also a bit-flipped
// and a truncated manifest copy), boots a ServeRuntime, and drives it with
// a deterministic open-loop schedule:
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
//                      [--load-shards=K]   # shard files per artifact
//                                          # (default 1)
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
  serve::ServeRuntimeOptions options;
  ApplyServeFlags(flags, &options);
  serve::ServeTelemetryOptions tel_options;
  ApplyTelemetryFlags(flags, &tel_options);
  loadgen::LoadRunOptions run;
  loadgen::SloBudget budget;
  ApplyLoadFlags(flags, &run, &budget);
  const bool swap_storm = flags.GetBool("load-swap-storm", false);
  const bool wall = flags.GetBool("load-wall", false);
  const std::string report_path =
      flags.GetString("load-report", "BENCH_serve.json");
  const std::string jsonl_path = flags.GetString("telemetry-jsonl", "");
  const std::string statusz_path = flags.GetString("statusz-out", "");
  const std::string scratch =
      flags.GetString("scratch-dir", "serve-load-scratch");
  const int64_t load_shards = flags.GetInt("load-shards", 1);
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
    const std::string path = (fs::path(scratch) / (name + ".pvram")).string();
    Status saved =
        serving::SaveShardedArtifact(*model, path, {.shards = load_shards});
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

  loadgen::SwapStormSpec& storm = run.storm;
  if (swap_storm && storm.period_ms <= 0) storm.period_ms = 250;
  storm.good = {good_a, good_b};
  if (swap_storm) {
    // Manifest copies beside the originals, so they name the same shard
    // files: one with a bit flipped inside the cluster_of payload (located
    // through the section table, never in padding or a reserved field),
    // one cut in half.
    const std::string bitflip =
        (fs::path(scratch) / "bitflip.pvram").string();
    const std::string trunc = (fs::path(scratch) / "trunc.pvram").string();
    std::string bytes = ReadAllBytes(good_a);
    auto view = serving::ParseAlignedContainer(
        bytes.data(), bytes.size(), serving::kManifestMagic,
        serving::kShardFormatVersion, "artifact manifest");
    if (!view.ok()) {
      std::fprintf(stderr, "%s\n", view.status().ToString().c_str());
      return 1;
    }
    uint64_t flip_at = 0;  // payloads start past the frame, never at 0
    for (const serving::AlignedSectionView& s : view->sections) {
      if (s.id == static_cast<uint32_t>(
                      serving::ManifestSectionId::kClusterOf) &&
          s.size > 0) {
        flip_at = s.offset + s.size / 2;
      }
    }
    if (flip_at == 0) {
      std::fprintf(stderr, "artifact manifest has no cluster_of payload\n");
      return 1;
    }
    bytes[flip_at] ^= 0x20;
    WriteAllBytes(bitflip, bytes);
    std::string half = ReadAllBytes(good_b);
    half.resize(half.size() / 2);
    WriteAllBytes(trunc, half);
    storm.corrupt = {bitflip, trunc};
    storm.arm_faults = true;
  }

  // ---- Online side: runtime, telemetry sink, oracle, harness.
  serve::ManualClock virtual_clock;
  serve::ServeTelemetry telemetry(tel_options);
  options.telemetry = &telemetry;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = kEpsilon;
  if (!wall) options.clock = &virtual_clock;
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

  run.load.num_users = kUsers;
  loadgen::LoadHarness harness(&runtime, oracle->get(), run);
  loadgen::LoadSummary summary =
      wall ? harness.RunWall() : harness.RunVirtual(&virtual_clock);

  // Close the final partial window on the clock the run actually used;
  // in virtual mode this makes the window series a pure function of the
  // schedule.
  telemetry.Flush(wall ? serve::SteadyClock::Instance()->NowMs()
                       : virtual_clock.NowMs());

  loadgen::SloVerdict verdict = loadgen::EvaluateSlo(budget, summary);

  loadgen::TelemetryReport tel_report;
  tel_report.recorded = telemetry.recorded();
  tel_report.sampled = telemetry.sampled();
  tel_report.dropped = telemetry.dropped_events();
  tel_report.sample_every = tel_options.sample_every;
  tel_report.window_ms = tel_options.window_ms;
  tel_report.burn_rate = telemetry.burn_rate();
  tel_report.series = telemetry.series();

  const std::string mode = wall ? "wall" : "virtual";
  const std::string json = loadgen::LoadReportJson(
      run.load, storm.period_ms, summary, budget, verdict, mode,
      wall ? run.wall_threads : 1, load_shards, &tel_report);
  if (!report_path.empty()) {
    std::string error;
    if (!obs::WriteTextFile(report_path, json, &error)) {
      std::fprintf(stderr, "report write failed: %s\n", error.c_str());
      return 1;
    }
  }
  if (!jsonl_path.empty()) {
    std::string error;
    if (!obs::WriteTextFile(jsonl_path, telemetry.EventsJsonl(), &error)) {
      std::fprintf(stderr, "telemetry jsonl write failed: %s\n",
                   error.c_str());
      return 1;
    }
  }
  if (!statusz_path.empty()) {
    std::string error;
    const serve::RuntimeIntrospection status =
        runtime.Introspect(wall ? -1 : virtual_clock.NowMs());
    if (!obs::WriteTextFile(statusz_path, serve::StatuszText(status),
                            &error)) {
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
