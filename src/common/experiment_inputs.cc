#include "common/experiment_inputs.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "community/partition_io.h"
#include "data/synthetic.h"
#include "graph/graph_io.h"
#include "similarity/common_neighbors.h"
#include "similarity/workload_io.h"

namespace privrec {

namespace {

Result<data::Dataset> LoadFileDataset(
    const ExperimentInputsOptions& options,
    std::vector<int64_t>* original_user_id,
    std::vector<int64_t>* original_item_id) {
  // Bootstrap demo inputs when absent so drivers run out of the box.
  if (!std::filesystem::exists(options.social_path) ||
      !std::filesystem::exists(options.prefs_path)) {
    if (options.verbose) {
      std::printf("inputs not found; writing a demo dataset to %s / %s\n",
                  options.social_path.c_str(), options.prefs_path.c_str());
    }
    data::Dataset demo = data::MakeTinyDataset(400, 600, 2024);
    Status s1 = graph::SaveSocialGraph(demo.social, options.social_path);
    if (!s1.ok()) return s1;
    Status s2 =
        graph::SavePreferenceGraph(demo.preferences, options.prefs_path);
    if (!s2.ok()) return s2;
  }

  auto social = graph::LoadSocialGraph(options.social_path);
  if (!social.ok()) return social.status();
  auto prefs = graph::LoadPreferenceGraph(options.prefs_path);
  if (!prefs.ok()) return prefs.status();
  if (prefs->graph.num_users() != social->graph.num_nodes()) {
    return Status::InvalidArgument(
        "preference users (" + std::to_string(prefs->graph.num_users()) +
        ") do not match social nodes (" +
        std::to_string(social->graph.num_nodes()) +
        "); the graphs must cover the same user set");
  }

  data::Dataset dataset;
  dataset.name = options.social_path;
  dataset.social = std::move(social->graph);
  dataset.preferences = std::move(prefs->graph);
  dataset.report = social->report;
  *original_user_id = std::move(social->original_id);
  *original_item_id = std::move(prefs->original_item_id);
  return dataset;
}

}  // namespace

std::vector<graph::NodeId> ExperimentInputs::AllUsers() const {
  std::vector<graph::NodeId> users(
      static_cast<size_t>(dataset.social.num_nodes()));
  for (graph::NodeId u = 0; u < dataset.social.num_nodes(); ++u) {
    users[static_cast<size_t>(u)] = u;
  }
  return users;
}

core::RecommenderContext ExperimentInputs::Context() const {
  return {&dataset.social, &dataset.preferences, &workload};
}

Result<ExperimentInputs> LoadExperimentInputs(
    const ExperimentInputsOptions& options) {
  ExperimentInputs inputs;
  if (options.social_path.empty() && options.prefs_path.empty()) {
    inputs.dataset =
        data::MakeTinyDataset(options.tiny_users, options.tiny_items,
                              static_cast<int64_t>(options.tiny_seed));
    // Synthetic ids are already dense: the mapping is the identity.
    for (int64_t u = 0; u < inputs.dataset.social.num_nodes(); ++u) {
      inputs.original_user_id.push_back(u);
    }
    for (int64_t i = 0; i < inputs.dataset.preferences.num_items(); ++i) {
      inputs.original_item_id.push_back(i);
    }
  } else {
    auto loaded = LoadFileDataset(options, &inputs.original_user_id,
                                  &inputs.original_item_id);
    if (!loaded.ok()) return loaded.status();
    inputs.dataset = std::move(*loaded);
    if (options.verbose) {
      std::printf(
          "loaded %lld users, %lld social edges, %lld items, %lld "
          "preference edges\n",
          static_cast<long long>(inputs.dataset.social.num_nodes()),
          static_cast<long long>(inputs.dataset.social.num_edges()),
          static_cast<long long>(inputs.dataset.preferences.num_items()),
          static_cast<long long>(inputs.dataset.preferences.num_edges()));
    }
  }

  // Similarity workload: cache file first, computed (and cached back)
  // otherwise.
  bool workload_cached = false;
  if (!options.workload_path.empty() &&
      std::filesystem::exists(options.workload_path)) {
    auto cached = similarity::LoadWorkload(
        options.workload_path, inputs.dataset.social.num_nodes());
    if (cached.ok()) {
      inputs.workload = std::move(*cached);
      workload_cached = true;
      if (options.verbose) {
        std::printf("loaded cached similarity workload from %s\n",
                    options.workload_path.c_str());
      }
    }
  }
  if (!workload_cached) {
    inputs.workload = similarity::SimilarityWorkload::Compute(
        inputs.dataset.social, similarity::CommonNeighbors());
    if (!options.workload_path.empty()) {
      Status s =
          similarity::SaveWorkload(inputs.workload, options.workload_path);
      if (s.ok() && options.verbose) {
        std::printf("cached similarity workload to %s\n",
                    options.workload_path.c_str());
      }
    }
  }

  // Clustering: same cache-or-compute dance.
  if (options.run_louvain) {
    bool partition_cached = false;
    if (!options.partition_path.empty() &&
        std::filesystem::exists(options.partition_path)) {
      auto cached = community::LoadPartition(
          options.partition_path, inputs.dataset.social.num_nodes());
      if (cached.ok()) {
        inputs.louvain.partition = std::move(*cached);
        partition_cached = true;
        if (options.verbose) {
          std::printf(
              "loaded cached clustering from %s (%lld clusters)\n",
              options.partition_path.c_str(),
              static_cast<long long>(
                  inputs.louvain.partition.num_clusters()));
        }
      }
    }
    if (!partition_cached) {
      inputs.louvain =
          community::RunLouvain(inputs.dataset.social, options.louvain);
      if (!options.partition_path.empty()) {
        Status s = community::SavePartition(inputs.louvain.partition,
                                            options.partition_path);
        if (s.ok() && options.verbose) {
          std::printf("cached clustering to %s\n",
                      options.partition_path.c_str());
        }
      }
    }
  }
  return inputs;
}

}  // namespace privrec
