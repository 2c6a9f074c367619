#include "data/synthetic.h"

#include <algorithm>

#include "common/random.h"
#include "graph/generators/planted_partition.h"
#include "graph/generators/preference_generator.h"
#include "obs/trace.h"

namespace privrec::data {

namespace {

Dataset Build(const std::string& name, graph::PlantedPartitionOptions social,
              graph::PreferenceGeneratorOptions prefs) {
  PRIVREC_SPAN("data.synthesize");
  graph::PlantedPartitionResult planted =
      graph::GeneratePlantedPartition(social);
  Dataset out;
  out.name = name;
  // Preferences follow the FINE taste groups; modularity clustering only
  // recovers the coarse level, which is what produces realistic
  // approximation error in the cluster averages.
  out.preferences =
      graph::GeneratePreferences(planted.sub_community_of, prefs);
  out.social = std::move(planted.graph);
  return out;
}

}  // namespace

Dataset MakeSyntheticLastFm(const SyntheticLastFmOptions& options) {
  graph::PlantedPartitionOptions social;
  social.num_nodes = options.num_users;
  social.num_communities = options.num_communities;
  social.community_size_skew = 0.75;  // largest cluster ~ 25-30% of users
  social.mean_degree = options.mean_degree;
  social.degree_exponent = 2.2;  // std ~ 17 at mean 13.4
  social.max_degree_factor = 9.0;
  social.mixing = options.mixing;
  social.sub_communities_per_community = options.taste_groups_per_community;
  social.sub_mixing = options.sub_mixing;
  social.num_small_components = options.num_small_components;
  social.seed = options.seed;

  graph::PreferenceGeneratorOptions prefs;
  prefs.num_items = options.num_items;
  prefs.mean_prefs_per_user = 48.7;  // Table 1: 48.7 (std 6.9)
  prefs.stddev_prefs_per_user = 6.9;
  prefs.homophily = options.homophily;
  prefs.personal_taste = options.personal_taste;
  prefs.popularity_skew = 1.05;
  prefs.seed = options.seed ^ 0xabcdef;
  return Build("lastfm-synth", social, prefs);
}

Dataset MakeSyntheticFlixster(const SyntheticFlixsterOptions& options) {
  graph::PlantedPartitionOptions social;
  social.num_nodes = options.num_users;
  social.num_communities = options.num_communities;
  social.community_size_skew = 0.6;  // largest cluster ~ 18% of users
  social.mean_degree = options.mean_degree;
  social.degree_exponent = 2.0;  // heavier tail: std ~ 31 at mean 18.5
  social.max_degree_factor = 14.0;
  social.mixing = options.mixing;
  social.sub_communities_per_community = options.taste_groups_per_community;
  social.sub_mixing = options.sub_mixing;
  social.num_small_components = 0;  // main component only (Section 6.1)
  social.seed = options.seed;

  graph::PreferenceGeneratorOptions prefs;
  prefs.num_items = options.num_items;
  prefs.mean_prefs_per_user = 54.8;  // Table 1: 54.8 per user
  prefs.stddev_prefs_per_user = 20.0;  // Flixster rating counts vary widely
  prefs.homophily = options.homophily;
  prefs.personal_taste = options.personal_taste;
  prefs.popularity_skew = 1.1;
  prefs.seed = options.seed ^ 0xfedcba;
  return Build("flixster-synth", social, prefs);
}

Dataset MakeTinyDataset(int64_t num_users, int64_t num_items, uint64_t seed) {
  graph::PlantedPartitionOptions social;
  social.num_nodes = num_users;
  social.num_communities = 6;
  social.community_size_skew = 0.5;
  social.mean_degree = 10.0;
  social.degree_exponent = 2.5;
  social.mixing = 0.1;
  social.sub_communities_per_community = 1;
  social.sub_mixing = 0.55;
  social.num_small_components = 2;
  social.seed = seed;

  graph::PreferenceGeneratorOptions prefs;
  prefs.num_items = num_items;
  prefs.mean_prefs_per_user = 20.0;
  prefs.stddev_prefs_per_user = 5.0;
  prefs.homophily = 0.85;
  prefs.personal_taste = 0.15;
  prefs.popularity_skew = 1.05;
  prefs.seed = seed ^ 0x1234;
  return Build("tiny", social, prefs);
}

std::vector<graph::PreferenceGraph> GrowingPreferenceSnapshots(
    const graph::PreferenceGraph& full, int64_t count, uint64_t seed) {
  PRIVREC_CHECK(count >= 1);
  std::vector<graph::PreferenceEdge> edges = full.WeightedEdges();
  Rng rng(seed);
  rng.Shuffle(edges);

  std::vector<graph::PreferenceGraph> snapshots;
  snapshots.reserve(static_cast<size_t>(count));
  for (int64_t t = 0; t < count; ++t) {
    size_t upto = static_cast<size_t>(
        static_cast<double>(edges.size()) * static_cast<double>(t + 1) /
        static_cast<double>(count));
    upto = std::min(upto, edges.size());
    std::vector<graph::PreferenceEdge> prefix(edges.begin(),
                                              edges.begin() + upto);
    snapshots.push_back(
        full.is_weighted()
            ? graph::PreferenceGraph::FromWeightedEdges(
                  full.num_users(), full.num_items(), prefix)
            : graph::PreferenceGraph::FromEdges(
                  full.num_users(), full.num_items(),
                  [&] {
                    std::vector<std::pair<graph::NodeId, graph::ItemId>> e;
                    e.reserve(prefix.size());
                    for (const auto& edge : prefix) {
                      e.emplace_back(edge.user, edge.item);
                    }
                    return e;
                  }()));
  }
  return snapshots;
}

}  // namespace privrec::data
