// Reproduces the Section 6.2 clustering report: Louvain (10 restarts,
// best modularity, multi-level refinement) on both social graphs —
// number of clusters, mean/std cluster size, and largest-cluster share.
//
// Paper reference points: Last.fm -> 35 clusters (16 main-component
// clusters averaging 115 users, 19 tiny components), largest = 28.5% of
// users; Flixster -> 46 clusters averaging 2986 users, largest = 18.3%.
//
//   ./bench_clustering_stats [--flixster_users=12000]

#include <iostream>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "community/louvain.h"
#include "community/quality.h"
#include "data/synthetic.h"
#include "eval/table.h"
#include "graph/components.h"

namespace privrec {
namespace {

void Report(const std::string& label, const graph::SocialGraph& g,
            eval::TablePrinter* table) {
  ScopedTimer timer(&obs::GetHistogram(
      "privrec.bench.clustering_ms", obs::ExponentialBuckets(1.0, 4.0, 12)));
  community::LouvainResult r =
      community::RunLouvain(g, {.restarts = 10, .seed = 404});
  graph::ComponentInfo components = graph::ConnectedComponents(g);
  community::PartitionQuality quality =
      community::EvaluatePartitionQuality(g, r.partition);
  double largest_share =
      static_cast<double>(r.partition.LargestClusterSize()) /
      static_cast<double>(g.num_nodes());
  table->AddRow(
      {label, std::to_string(g.num_nodes()),
       std::to_string(components.num_components),
       std::to_string(r.partition.num_clusters()),
       FormatDouble(r.partition.AverageClusterSize(), 0) + " (" +
           FormatDouble(r.partition.ClusterSizeStddev(), 0) + ")",
       FormatDouble(100.0 * largest_share, 1) + "%",
       FormatDouble(r.modularity, 3),
       FormatDouble(quality.coverage, 2),
       FormatDouble(quality.mean_conductance, 3),
       FormatDouble(timer.ElapsedSeconds(), 1) + "s"});
}

}  // namespace

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int64_t flixster_users = flags.GetInt("flixster_users", 12000);
  if (!flags.Validate()) return 1;

  std::cout << "=== Section 6.2: Louvain clustering of the social graphs "
               "(10 restarts, multi-level refinement) ===\n\n";
  std::cout << "paper: lastfm -> 35 clusters (19 of them the tiny "
               "components), largest 28.5% of users;\n"
               "       flixster -> 46 clusters, avg 2986 users, largest "
               "18.3%\n\n";

  eval::TablePrinter table({"graph", "|U|", "components", "clusters",
                            "avg size (std)", "largest", "Q", "coverage",
                            "conductance", "time"});
  data::Dataset lastfm = data::MakeSyntheticLastFm();
  Report("lastfm-synth", lastfm.social, &table);

  data::SyntheticFlixsterOptions fopt;
  fopt.num_users = flixster_users;
  fopt.num_items = 2000;  // items are irrelevant to clustering
  data::Dataset flixster = data::MakeSyntheticFlixster(fopt);
  Report("flixster-synth", flixster.social, &table);
  table.Print(std::cout);
  return 0;
}

}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
