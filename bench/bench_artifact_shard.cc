// Table-1-scale artifact bench: save and open of a sharded .pvram
// artifact at the paper's scale.
//
// The driver generates the synthetic Flixster substitute at the paper's
// REAL Table-1 scale (137,372 users, ~1.27M social edges, ~7.5M
// preference edges), builds one full artifact, saves it as a manifest
// plus K shard files, and times both open routes:
//
//   MappedArtifact::Open (mmap)          + FromMapped
//   MappedArtifact::Open (read fallback) + FromMapped
//
// plus the RSS delta of each route and of a SECOND engine over the same
// files — the mmap route shares the page cache, the read route pays the
// full copy again. A probe batch is served from every engine and
// compared byte-for-byte across the routes.
//
// The "scale" block is one rung of the scale ladder: synthesis seconds,
// the offline build's peak RSS (VmHWM after the build), the per-user p50
// of Cluster Recommend({u}, N) at N = 10 and 50, timed on one thread over
// 1,000 evenly spaced users of an mmap-opened engine, with the mean item
// blocks those calls visited per user (of the release's blocks per user,
// ServingReport::bound_blocks_*) and the mean 8-item lines whose items
// they summed (ServingReport::bound_lines_summed), and the rate of a
// 10,000-user top-50 bulk Recommend on all threads (median of three
// passes).
//
//   ./bench_artifact_shard [--users=137372] [--items=48756] [--shards=6]
//                          [--epsilon=0.5] [--top_n=10]
//                          [--scratch-dir=artifact-shard-scratch]
//                          [--report=BENCH_artifact.json]
//
// Exit status: 0 when every probe is bit-identical; 2 otherwise; 1 on
// setup errors.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/builder.h"
#include "artifact/mapped.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "obs/export.h"
#include "similarity/common_neighbors.h"

namespace {

namespace fs = std::filesystem;
using namespace privrec;

// A /proc/self/status field in kB ("VmRSS:", "VmHWM:"); 0 when
// unavailable (non-Linux).
int64_t StatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string token;
  while (status >> token) {
    if (token == field) {
      int64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

struct LoadSample {
  double total_ms = 0;
  int64_t rss_delta_kb = 0;
  int64_t second_rss_delta_kb = 0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  data::SyntheticFlixsterOptions data_options;  // Table-1 scale defaults
  const int64_t users = flags.GetInt("users", data_options.num_users);
  const int64_t items = flags.GetInt("items", data_options.num_items);
  const int64_t shards = flags.GetInt("shards", 6);
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const int64_t top_n = flags.GetInt("top_n", 10);
  const std::string scratch =
      flags.GetString("scratch-dir", "artifact-shard-scratch");
  const std::string report =
      flags.GetString("report", "BENCH_artifact.json");
  if (!flags.Validate()) return 1;

  fs::remove_all(scratch);
  fs::create_directories(scratch);

  // ---- Offline: dataset, workload, clustering, one full build.
  WallTimer timer;
  data_options.num_users = users;
  data_options.num_items = items;
  data::Dataset dataset = data::MakeSyntheticFlixster(data_options);
  const double dataset_ms = timer.ElapsedMillis();
  std::fprintf(stderr,
               "dataset: %lld users, %lld social edges, %lld preference "
               "edges (%.0f ms)\n",
               static_cast<long long>(dataset.social.num_nodes()),
               static_cast<long long>(dataset.social.num_edges()),
               static_cast<long long>(dataset.preferences.num_edges()),
               dataset_ms);

  timer.Reset();
  auto workload = similarity::SimilarityWorkload::Compute(
      dataset.social, similarity::CommonNeighbors());
  const double workload_ms = timer.ElapsedMillis();
  timer.Reset();
  auto louvain =
      community::RunLouvain(dataset.social, {.restarts = 1, .seed = 3});
  const double louvain_ms = timer.ElapsedMillis();
  std::fprintf(stderr, "workload %.0f ms, louvain %.0f ms (%lld clusters)\n",
               workload_ms, louvain_ms,
               static_cast<long long>(louvain.partition.num_clusters()));

  timer.Reset();
  artifact::ModelArtifactBuilder builder(&dataset.social,
                                         &dataset.preferences);
  builder.SetPartition(&louvain.partition);
  builder.SetWorkload(&workload);
  artifact::BuildOptions build_options;
  build_options.epsilon = epsilon;
  build_options.seed = 11;
  // Reference sections carry the Table-1-scale preference CSR into the
  // artifact — that is most of the bytes, and exactly what the mapped
  // route must serve without a deserialize pass.
  build_options.include_reference_sections = true;
  auto built = builder.Build(build_options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  serving::ArtifactModel model = std::move(*built);
  const double build_ms = timer.ElapsedMillis();
  const int64_t build_peak_rss_kb = StatusKb("VmHWM:");
  // The model holds its own copy of the CSR; dropping the builder's keeps
  // the open routes below from stacking on top of it.
  workload = similarity::SimilarityWorkload{};

  const std::string manifest =
      (fs::path(scratch) / "table1.pvram").string();
  timer.Reset();
  Status saved =
      serving::SaveShardedArtifact(model, manifest, {.shards = shards});
  const double save_ms = timer.ElapsedMillis();
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  model = serving::ArtifactModel{};  // drop the copy before RSS baselines

  // ---- Online: both open routes, timed cold-ish (files are in page
  // cache after the save — both routes see the same warm cache, which is
  // the steady state a reloading server lives in anyway).
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = epsilon;
  std::vector<graph::NodeId> probe_users;
  for (graph::NodeId u = 0; u < users && probe_users.size() < 64; u += 97) {
    probe_users.push_back(u);
  }

  std::vector<core::RecommendationList> reference;
  bool bit_identical = true;
  auto probe = [&](serving::ServingEngine* engine) {
    auto server = serving::MakeServeRecommender(engine, spec);
    if (!server.ok()) {
      std::fprintf(stderr, "probe rejected: %s\n",
                   server.status().ToString().c_str());
      bit_identical = false;
      return;
    }
    auto lists = (*server)->Recommend(probe_users, top_n).lists;
    if (reference.empty()) {
      reference = std::move(lists);
    } else if (lists != reference) {
      bit_identical = false;
    }
  };

  uint64_t artifact_bytes = 0;  // manifest + every shard the table names
  auto mapped_route = [&](bool use_mmap, LoadSample* sample) -> int {
    const int64_t rss0 = StatusKb("VmRSS:");
    timer.Reset();
    serving::MapOptions map_options;
    map_options.use_mmap = use_mmap;
    auto mapped = serving::MappedArtifact::Open(manifest, map_options);
    const double open_ms = timer.ElapsedMillis();
    if (!mapped.ok()) {
      std::fprintf(stderr, "mapped open failed: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    artifact_bytes = (*mapped)->total_bytes();
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    sample->total_ms = timer.ElapsedMillis();
    std::fprintf(stderr, "  mapped(use_mmap=%d): open %.1f ms, engine %.1f ms\n",
                 use_mmap ? 1 : 0, open_ms, sample->total_ms - open_ms);
    sample->rss_delta_kb = StatusKb("VmRSS:") - rss0;
    if (!engine.ok()) {
      std::fprintf(stderr, "FromMapped failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    probe(&*engine);
    const int64_t rss1 = StatusKb("VmRSS:");
    auto again = serving::MappedArtifact::Open(manifest, map_options);
    if (!again.ok()) return 1;
    auto second = serving::ServingEngine::FromMapped(*again);
    sample->second_rss_delta_kb = StatusKb("VmRSS:") - rss1;
    if (!second.ok()) return 1;
    return 0;
  };
  LoadSample mmap_sample;
  LoadSample read_sample;
  if (mapped_route(true, &mmap_sample) != 0) return 1;
  if (mapped_route(false, &read_sample) != 0) return 1;

  // ---- Per-user serve latency on one thread over the mmap route.
  constexpr int64_t kSampledUsers = 1000;
  constexpr int64_t kLadderTopN[] = {10, 50};
  constexpr int64_t kBulkUsers = 10'000;
  constexpr int64_t kBulkTopN = 50;
  double recommend_p50_us[2] = {};
  double blocks_visited_per_user[2] = {};
  double lines_summed_per_user[2] = {};
  double blocks_per_user = 0.0;
  double bulk_users_per_s = 0.0;
  {
    auto mapped = serving::MappedArtifact::Open(manifest, {});
    if (!mapped.ok()) return 1;
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    if (!engine.ok()) return 1;
    auto server = serving::MakeServeRecommender(&*engine, spec);
    if (!server.ok()) return 1;
    {
      ScopedThreadCount one_thread(1);
      std::vector<double> us(static_cast<size_t>(kSampledUsers));
      for (size_t n = 0; n < std::size(kLadderTopN); ++n) {
        int64_t visited = 0;
        int64_t lines = 0;
        int64_t total = 0;
        int64_t personalized = 0;
        for (int64_t k = 0; k < kSampledUsers; ++k) {
          const graph::NodeId u = k * users / kSampledUsers;
          timer.Reset();
          const core::RecommendedBatch batch =
              (*server)->Recommend({u}, kLadderTopN[n]);
          us[static_cast<size_t>(k)] = timer.ElapsedSeconds() * 1e6;
          visited += batch.report.bound_blocks_visited;
          lines += batch.report.bound_lines_summed;
          total += batch.report.bound_blocks_total;
          if (batch.degradation[0].reason !=
              core::DegradationReason::kIsolatedUser) {
            ++personalized;
          }
        }
        std::nth_element(us.begin(), us.begin() + kSampledUsers / 2,
                         us.end());
        recommend_p50_us[n] = us[kSampledUsers / 2];
        if (personalized > 0) {
          blocks_visited_per_user[n] = static_cast<double>(visited) /
                                       static_cast<double>(personalized);
          lines_summed_per_user[n] = static_cast<double>(lines) /
                                     static_cast<double>(personalized);
          blocks_per_user = static_cast<double>(total) /
                            static_cast<double>(personalized);
        }
      }
    }
    std::vector<graph::NodeId> bulk;
    for (int64_t k = 0; k < kBulkUsers; ++k) {
      bulk.push_back(static_cast<graph::NodeId>(k * users / kBulkUsers));
    }
    std::vector<double> rates;
    for (int pass = 0; pass < 3; ++pass) {
      timer.Reset();
      (*server)->Recommend(bulk, kBulkTopN);
      rates.push_back(static_cast<double>(kBulkUsers) /
                      timer.ElapsedSeconds());
    }
    std::sort(rates.begin(), rates.end());
    bulk_users_per_s = rates[1];
  }
  std::fprintf(stderr,
               "scale: synthesis %.2f s, build peak RSS %.0f MB, "
               "Recommend p50 %.1f us (top-10), %.1f us (top-50), "
               "blocks visited %.1f / %.1f of %.0f per user, "
               "lines summed %.1f / %.1f per user, "
               "bulk top-50 %.0f users/s\n",
               dataset_ms / 1e3, static_cast<double>(build_peak_rss_kb) / 1024,
               recommend_p50_us[0], recommend_p50_us[1],
               blocks_visited_per_user[0], blocks_visited_per_user[1],
               blocks_per_user, lines_summed_per_user[0],
               lines_summed_per_user[1], bulk_users_per_s);

  const bool pass = bit_identical;

  char buffer[3072];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"context\": {\"bench\": \"bench_artifact_shard\", "
      "\"scale\": \"table1-flixster\"},\n"
      "  \"spec\": {\"users\": %lld, \"items\": %lld, \"shards\": %lld, "
      "\"epsilon\": %.3f, \"social_edges\": %lld, \"pref_edges\": %lld, "
      "\"clusters\": %lld},\n"
      "  \"offline_ms\": {\"dataset\": %.1f, \"workload\": %.1f, "
      "\"louvain\": %.1f, \"build\": %.1f, \"save\": %.1f},\n"
      "  \"artifact_bytes\": %llu,\n"
      "  \"load\": {\n"
      "    \"mapped_mmap\": {\"total_ms\": %.2f, \"rss_delta_kb\": %lld, "
      "\"second_engine_rss_delta_kb\": %lld},\n"
      "    \"mapped_read\": {\"total_ms\": %.2f, \"rss_delta_kb\": %lld, "
      "\"second_engine_rss_delta_kb\": %lld}\n"
      "  },\n"
      "  \"scale\": {\"synthesis_s\": %.2f, \"build_peak_rss_mb\": %.0f, "
      "\"sampled_users\": %lld, \"recommend_us_p50\": {\"top10\": %.1f, "
      "\"top50\": %.1f}, \"blocks_visited_per_user\": {\"top10\": %.1f, "
      "\"top50\": %.1f}, \"blocks_per_user\": %.0f, "
      "\"lines_summed_per_user\": {\"top10\": %.1f, \"top50\": %.1f}, "
      "\"bulk_top50_users_per_s\": %.0f},\n"
      "  \"results\": {\"bit_identical_probes\": %s, \"pass\": %s}\n"
      "}\n",
      static_cast<long long>(users), static_cast<long long>(items),
      static_cast<long long>(shards), epsilon,
      static_cast<long long>(dataset.social.num_edges()),
      static_cast<long long>(dataset.preferences.num_edges()),
      static_cast<long long>(louvain.partition.num_clusters()), dataset_ms,
      workload_ms, louvain_ms, build_ms, save_ms,
      static_cast<unsigned long long>(artifact_bytes), mmap_sample.total_ms,
      static_cast<long long>(mmap_sample.rss_delta_kb),
      static_cast<long long>(mmap_sample.second_rss_delta_kb),
      read_sample.total_ms,
      static_cast<long long>(read_sample.rss_delta_kb),
      static_cast<long long>(read_sample.second_rss_delta_kb),
      dataset_ms / 1e3, static_cast<double>(build_peak_rss_kb) / 1024,
      static_cast<long long>(kSampledUsers), recommend_p50_us[0],
      recommend_p50_us[1], blocks_visited_per_user[0],
      blocks_visited_per_user[1], blocks_per_user, lines_summed_per_user[0],
      lines_summed_per_user[1], bulk_users_per_s,
      bit_identical ? "true" : "false",
      pass ? "true" : "false");

  if (!report.empty()) {
    std::string error;
    if (!obs::WriteTextFile(report, buffer, &error)) {
      std::fprintf(stderr, "report write failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "bench_artifact_shard: mmap %.1f ms, read %.1f ms, "
               "bit_identical=%d -> %s\n",
               mmap_sample.total_ms, read_sample.total_ms,
               bit_identical ? 1 : 0, pass ? "PASS" : "FAIL");
  fs::remove_all(scratch);
  return pass ? 0 : 2;
}
