// Ablation A1: how much does the clustering strategy matter?
//
// Runs Algorithm 1 on Last.fm (CN measure) with six createClusters
// strategies — Louvain (the paper's choice), Louvain without multi-level
// refinement, label propagation, random clusters of matched granularity,
// one whole-graph cluster, and singletons (which degenerates to
// per-edge noise, i.e. NOE) — at ε = ∞ (approximation error only) and
// ε = 0.1 (the paper's interesting regime).
//
// Expected: Louvain dominates at ε = 0.1; singletons are perfect at ε = ∞
// but collapse under noise; the whole-graph cluster is noise-proof but
// destroys personalization. This isolates the paper's central claim that
// community structure is what buys the good trade-off.
//
//   ./bench_ablation_clustering [--trials=5] [--eval_users=1000]

#include <functional>
#include <iostream>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/stats.h"
#include "community/kmeans.h"
#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/modularity.h"
#include "community/simple_clusterings.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "eval/table.h"

namespace privrec {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int trials = static_cast<int>(flags.GetInt("trials", 5));
  const int64_t eval_count = flags.GetInt("eval_users", 1000);
  if (!flags.Validate()) return 1;

  std::cout << "=== Ablation A1: clustering strategy (Last.fm, CN, "
               "NDCG@50, " << trials << " trials) ===\n\n";
  data::Dataset dataset = data::MakeSyntheticLastFm();
  std::vector<graph::NodeId> users =
      bench::SampleUsers(dataset.social.num_nodes(), eval_count, 29);
  auto measure = bench::MakeMeasure("CN");
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                      *measure, users);
  core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                   &workload};
  eval::ExactReference reference =
      eval::ExactReference::Compute(context, users, 50);

  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 61});
  community::LouvainResult louvain_plain = community::RunLouvain(
      dataset.social, {.restarts = 10, .refine = false, .seed = 61});
  // Resolution sweep: gamma > 1 splits clusters (less noise smoothing,
  // less approximation error), gamma < 1 merges them.
  community::LouvainResult louvain_fine = community::RunLouvain(
      dataset.social, {.restarts = 10, .resolution = 4.0, .seed = 61});
  community::LouvainResult louvain_coarse = community::RunLouvain(
      dataset.social, {.restarts = 10, .resolution = 0.3, .seed = 61});
  const graph::NodeId n = dataset.social.num_nodes();

  struct Strategy {
    std::string name;
    community::Partition partition;
  };
  std::vector<Strategy> strategies;
  strategies.push_back({"louvain (paper)", louvain.partition});
  strategies.push_back({"louvain, no refinement", louvain_plain.partition});
  strategies.push_back({"louvain, resolution 4.0", louvain_fine.partition});
  strategies.push_back(
      {"louvain, resolution 0.3", louvain_coarse.partition});
  strategies.push_back(
      {"label propagation",
       community::RunLabelPropagation(dataset.social, {.seed = 62})});
  strategies.push_back(
      {"spectral k-means (same k)",
       community::SpectralKMeans(dataset.social,
                                 louvain.partition.num_clusters(), 65)});
  strategies.push_back(
      {"random (same k)",
       community::RandomClusters(n, louvain.partition.num_clusters(), 63)});
  strategies.push_back({"single cluster", community::Partition::Whole(n)});
  strategies.push_back(
      {"singletons (=NOE)", community::Partition::Singletons(n)});

  eval::TablePrinter table({"strategy", "clusters", "Q", "NDCG@50 eps=inf",
                            "NDCG@50 eps=0.1"});
  for (const Strategy& s : strategies) {
    std::vector<std::string> row = {
        s.name, std::to_string(s.partition.num_clusters()),
        FormatDouble(community::Modularity(dataset.social, s.partition),
                     3)};
    for (double eps : {dp::kEpsilonInfinity, 0.1}) {
      auto rec = bench::MakeCluster(context, s.partition, eps, 64);
      RunningStats stats;
      int reps = eps == dp::kEpsilonInfinity ? 1 : trials;
      for (int t = 0; t < reps; ++t) {
        stats.Add(reference.MeanNdcg(rec->Recommend(users, 50)));
      }
      row.push_back(FormatDouble(stats.mean(), 3));
    }
    table.AddRow(row);
    std::cout << "  " << s.name << " done\n";
  }
  std::cout << "\n";
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
