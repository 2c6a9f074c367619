// Quickstart: build a small social + preference graph, cluster the users
// with Louvain, publish a differentially private model artifact, and serve
// top-N recommendations from it.
//
//   ./quickstart [--epsilon=0.5] [--top_n=5]
//
// This walks the full public API surface in ~100 lines: experiment inputs
// (graphs + similarity workload + clustering), the two-phase
// build→save→load→serve pipeline, and the NDCG evaluator. The serve step
// reads ONLY the sanitized artifact — the private preference graph is out
// of reach by construction.

#include <cstdio>

#include "artifact/builder.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/driver_flags.h"
#include "common/experiment_inputs.h"
#include "common/flags.h"
#include "core/exact_recommender.h"
#include "eval/exact_reference.h"

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const int64_t top_n = flags.GetInt("top_n", 5);
  if (!flags.Validate()) return 1;

  // 1. Inputs: a synthetic community-structured dataset plus the public
  //    precomputations — similarity workload and Louvain clusters (swap in
  //    real TSV files via ExperimentInputsOptions::social_path/prefs_path).
  ExperimentInputsOptions inputs_options;
  inputs_options.tiny_users = 300;
  inputs_options.tiny_items = 400;
  inputs_options.tiny_seed = 42;
  inputs_options.louvain.seed = 7;
  auto inputs = LoadExperimentInputs(inputs_options);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %lld users, %lld social edges, %lld items, "
              "%lld preference edges\n",
              static_cast<long long>(inputs->dataset.social.num_nodes()),
              static_cast<long long>(inputs->dataset.social.num_edges()),
              static_cast<long long>(
                  inputs->dataset.preferences.num_items()),
              static_cast<long long>(
                  inputs->dataset.preferences.num_edges()));
  std::printf("louvain: %lld clusters, modularity %.3f\n",
              static_cast<long long>(
                  inputs->louvain.partition.num_clusters()),
              inputs->louvain.modularity);

  // 2. BUILD: run Algorithm 1's publication step (the only ε-spending
  //    moment) and freeze it into a .pvram model artifact.
  artifact::ModelArtifactBuilder builder(&inputs->dataset.social,
                                         &inputs->dataset.preferences);
  builder.SetPartition(&inputs->louvain.partition);
  builder.SetWorkload(&inputs->workload);
  artifact::BuildOptions build_options;
  build_options.epsilon = epsilon;
  build_options.seed = 1;
  build_options.include_reference_sections = false;
  auto model = builder.Build(build_options);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const std::string artifact_path = "/tmp/privrec_quickstart.pvram";
  Status saved = serving::SaveShardedArtifact(*model, artifact_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("built + saved model artifact: %s\n", artifact_path.c_str());

  // 3. SERVE: load the artifact back and reconstruct recommendations from
  //    the sanitized release alone. Serving is post-processing — rerun it
  //    as often as you like at zero additional privacy cost.
  auto engine = serving::ServingEngine::Load(artifact_path);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = epsilon;
  spec.expected_graph_hash = builder.graph_hash();
  auto server = serving::MakeServeRecommender(&*engine, spec);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  // 4. Compare private (served) vs non-private lists for one user.
  core::RecommenderContext context = inputs->Context();
  core::ExactRecommender exact_rec(context);
  const graph::NodeId user = 17;
  core::RecommendationList private_list =
      (*server)->Recommend({user}, top_n).lists[0];
  core::RecommendationList exact_list = exact_rec.RecommendOne(user, top_n);
  std::printf("\nuser %lld, epsilon = %.2f\n",
              static_cast<long long>(user), epsilon);
  std::printf("%-6s %-18s %-18s\n", "rank", "exact item(util)",
              "served item(util)");
  for (int64_t k = 0; k < top_n; ++k) {
    char exact_cell[32] = "-";
    char private_cell[32] = "-";
    if (k < static_cast<int64_t>(exact_list.size())) {
      std::snprintf(exact_cell, sizeof(exact_cell), "%lld (%.2f)",
                    static_cast<long long>(exact_list[k].item),
                    exact_list[k].utility);
    }
    if (k < static_cast<int64_t>(private_list.size())) {
      std::snprintf(private_cell, sizeof(private_cell), "%lld (%.2f)",
                    static_cast<long long>(private_list[k].item),
                    private_list[k].utility);
    }
    std::printf("%-6lld %-18s %-18s\n", static_cast<long long>(k + 1),
                exact_cell, private_cell);
  }

  // 5. Accuracy across all users (Equation 2), served from the artifact.
  std::vector<graph::NodeId> users = inputs->AllUsers();
  eval::ExactReference reference =
      eval::ExactReference::Compute(context, users, top_n);
  double ndcg =
      reference.MeanNdcg((*server)->Recommend(users, top_n).lists);
  std::printf("\nNDCG@%lld across %zu users (served): %.3f\n",
              static_cast<long long>(top_n), users.size(), ndcg);
  return 0;
}
