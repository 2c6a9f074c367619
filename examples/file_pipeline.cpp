// End-to-end file pipeline: the shape of a production batch job, now in
// two phases.
//
// Reads a social edge list and a preference edge list from disk (TSV, one
// edge per line, '#' comments), BUILDS a model artifact (clustering +
// similarity + the ε-DP publication), then SERVES top-N recommendations
// for every user from that artifact — the serving step never touches the
// raw preference edges. When the input files do not exist, a demo dataset
// is generated and saved first, so the example is runnable out of the box:
//
//   ./file_pipeline [--social=social.tsv] [--prefs=prefs.tsv]
//                   [--out=recommendations.tsv] [--epsilon=0.5] [--top_n=10]
//                   [--artifact-out=model.pvram]  # persist the build phase
//                   [--artifact-in=model.pvram]   # serve a prior build
//                                                 # (no ε re-spend)
//                   [--shards=K]                  # shard files per artifact
//                                                 # (default 1)
//                   [--no-mmap]                   # serve the artifact via
//                                                 # the read fallback
//
// --artifact-in replays a previous publication: the build phase is skipped
// entirely and the compatibility gates verify the artifact matches the
// inputs (graph fingerprint) and the requested ε (provenance).
// --artifact-out writes a .pvram manifest plus K shard files
// (cluster-range partitioned, mmap-served in place on load) and prints
// the shard files the manifest names.

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "artifact/builder.h"
#include "artifact/mapped.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/driver_flags.h"
#include "common/experiment_inputs.h"
#include "common/flags.h"
#include "common/timer.h"
#include "graph/metrics.h"

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  ExperimentInputsOptions inputs_options;
  inputs_options.social_path =
      flags.GetString("social", "/tmp/privrec_social.tsv");
  inputs_options.prefs_path =
      flags.GetString("prefs", "/tmp/privrec_prefs.tsv");
  // Optional caches: clustering and similarity rows read only public
  // data, so a deployment computes them once and reuses them across
  // releases.
  inputs_options.partition_path = flags.GetString("partition", "");
  inputs_options.workload_path = flags.GetString("workload", "");
  inputs_options.louvain.seed = 7;
  inputs_options.verbose = true;
  const std::string out_path =
      flags.GetString("out", "/tmp/privrec_recommendations.tsv");
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const int64_t top_n = flags.GetInt("top_n", 10);
  const std::string artifact_out = flags.GetString("artifact-out", "");
  const std::string artifact_in = flags.GetString("artifact-in", "");
  const int64_t shards = flags.GetInt("shards", 1);
  const bool no_mmap = flags.GetBool("no-mmap", false);
  const bool table_f32 = flags.GetBool("table-f32", false);
  if (!flags.Validate()) return 1;
  if (no_mmap) setenv("PRIVREC_NO_MMAP", "1", 1);

  WallTimer timer;
  auto inputs = LoadExperimentInputs(inputs_options);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const uint64_t graph_hash = graph::DatasetFingerprint(
      inputs->dataset.social, inputs->dataset.preferences);
  std::printf("inputs ready: %lld users over %lld clusters (%.0f ms)\n",
              static_cast<long long>(inputs->dataset.social.num_nodes()),
              static_cast<long long>(
                  inputs->louvain.partition.num_clusters()),
              timer.ElapsedMillis());

  // ---- Build phase (skipped when serving a prior build) ----
  timer.Reset();
  Result<serving::ServingEngine> engine = [&]() {
    if (!artifact_in.empty()) {
      std::printf("loading model artifact from %s (no epsilon re-spend)\n",
                  artifact_in.c_str());
      return serving::ServingEngine::Load(artifact_in);
    }
    artifact::ModelArtifactBuilder builder(&inputs->dataset.social,
                                           &inputs->dataset.preferences);
    builder.SetPartition(&inputs->louvain.partition);
    builder.SetWorkload(&inputs->workload);
    artifact::BuildOptions build_options;
    build_options.epsilon = epsilon;
    build_options.seed = 11;
    // The sanitized sections alone serve the paper's mechanism.
    build_options.include_reference_sections = false;
    // Optional f32 mirror of the noisy table: DP-free post-processing,
    // halves the reconstruction read set at bounded NDCG cost.
    build_options.table_f32 = table_f32;
    auto model = builder.Build(build_options);
    if (!model.ok()) return Result<serving::ServingEngine>(model.status());
    if (!artifact_out.empty()) {
      Status saved = serving::SaveShardedArtifact(*model, artifact_out,
                                                  {.shards = shards});
      if (!saved.ok()) return Result<serving::ServingEngine>(saved);
      std::printf("saved model artifact to %s (epsilon=%.2f frozen in "
                  "its provenance)\n",
                  artifact_out.c_str(), epsilon);
      // Serve what was written, proving the round trip.
      auto mapped = serving::MappedArtifact::Open(
          artifact_out, serving::MapOptionsFromEnv());
      if (!mapped.ok()) return Result<serving::ServingEngine>(mapped.status());
      for (const serving::ShardTableEntry& e : (*mapped)->shard_table()) {
        std::printf("  shard file: %s (%llu bytes, clusters [%lld, %lld))\n",
                    e.file.c_str(),
                    static_cast<unsigned long long>(e.file_size),
                    static_cast<long long>(e.cluster_begin),
                    static_cast<long long>(e.cluster_end));
      }
      return serving::ServingEngine::FromMapped(*mapped);
    }
    return serving::ServingEngine::FromModel(std::move(*model));
  }();
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  // ---- Serve phase: sanitized sections only, gated for compatibility ----
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = epsilon;
  spec.expected_graph_hash = graph_hash;
  auto server = serving::MakeServeRecommender(&*engine, spec);
  if (!server.ok()) {
    std::fprintf(stderr, "artifact rejected: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::vector<graph::NodeId> users = inputs->AllUsers();
  auto batch = (*server)->Recommend(users, top_n);
  std::printf("served top-%lld for %zu users at epsilon=%.2f from the "
              "artifact (%.0f ms total)\n",
              static_cast<long long>(top_n), users.size(), epsilon,
              timer.ElapsedMillis());

  // Output uses the ORIGINAL ids from the input files.
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "# user\trank\titem\tnoisy_utility\n";
  for (size_t k = 0; k < users.size(); ++k) {
    int64_t original_user =
        inputs->original_user_id[static_cast<size_t>(users[k])];
    for (size_t p = 0; p < batch.lists[k].size(); ++p) {
      int64_t original_item =
          inputs->original_item_id[static_cast<size_t>(
              batch.lists[k][p].item)];
      out << original_user << '\t' << p + 1 << '\t' << original_item
          << '\t' << batch.lists[k][p].utility << '\n';
    }
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
