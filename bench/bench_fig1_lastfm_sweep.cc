// Reproduces Figure 1: average NDCG@{10, 50, 100} of the four framework
// instantiations (CN, GD, AA, KZ) on Last.fm, for
// ε ∈ {∞, 1.0, 0.6, 0.1, 0.05, 0.01}, averaged over repeated trials.
//
// Paper shape to verify: the curves hug the ε = ∞ value down to ε ≈ 0.6
// (approximation error dominates, ~0.81-0.87 at N=50), drop to ~0.70-0.73
// at ε = 0.1, and collapse below that.
//
//   ./bench_fig1_lastfm_sweep [--trials=10] [--eval_users=1892]

#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "eval/experiment.h"
#include "eval/table.h"

namespace privrec {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  // The paper uses 10 trials over all 1892 users; the defaults trade a
  // little averaging for a bench suite that finishes quickly on one core
  // (pass --trials=10 --eval_users=1892 for the full configuration).
  const int trials = static_cast<int>(flags.GetInt("trials", 5));
  const int64_t eval_count = flags.GetInt("eval_users", 1000);
  if (!flags.Validate()) return 1;

  std::cout << "=== Figure 1: NDCG@N vs epsilon on Last.fm (cluster "
               "framework, " << trials << " trials) ===\n\n";
  ScopedTimer total_timer(&obs::GetHistogram(
      "privrec.bench.sweep_ms", obs::ExponentialBuckets(1e3, 4.0, 10)));
  data::Dataset dataset = data::MakeSyntheticLastFm();
  std::vector<graph::NodeId> users =
      bench::SampleUsers(dataset.social.num_nodes(), eval_count, 17);
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 42});
  std::cout << "clusters: " << louvain.partition.num_clusters()
            << " (Q = " << FormatDouble(louvain.modularity, 3) << "), "
            << users.size() << " evaluation users\n\n";

  const std::vector<int64_t> ns = {10, 50, 100};
  // cells[n][(measure, eps)] -> mean ndcg.
  std::map<int64_t, std::map<std::string, std::vector<std::string>>> rows;

  for (const std::string& name : bench::MeasureNames()) {
    auto measure = bench::MakeMeasure(name);
    similarity::SimilarityWorkload workload =
        similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                        *measure, users);
    core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                     &workload};
    eval::ExactReference reference =
        eval::ExactReference::Compute(context, users, 100);

    eval::RecommenderFactory factory =
        bench::ClusterFactory(context, louvain.partition);
    eval::SweepOptions sweep;
    sweep.epsilons = bench::PaperEpsilons();
    sweep.ns = ns;
    sweep.trials = trials;
    sweep.seed = 1000;
    std::vector<eval::SweepCell> cells =
        eval::RunNdcgSweep(factory, reference, sweep);
    for (const eval::SweepCell& cell : cells) {
      rows[cell.n][name].push_back(FormatDouble(cell.mean_ndcg, 3) + "±" +
                                   FormatDouble(cell.stddev_ndcg, 3));
    }
    std::cout << "measure " << name << " done ("
              << FormatDouble(total_timer.ElapsedSeconds(), 0) << "s)\n";
  }

  for (int64_t n : ns) {
    std::cout << "\n--- NDCG@" << n << " (Fig. 1"
              << (n == 10 ? "a" : n == 50 ? "b" : "c") << ") ---\n";
    std::vector<std::string> headers = {"measure"};
    for (double eps : bench::PaperEpsilons()) {
      headers.push_back("eps=" + bench::EpsilonLabel(eps));
    }
    eval::TablePrinter table(headers);
    for (const std::string& name : bench::MeasureNames()) {
      std::vector<std::string> row = {name};
      for (const std::string& cell : rows[n][name]) row.push_back(cell);
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  std::cout << "\ntotal time: "
            << FormatDouble(total_timer.ElapsedSeconds(), 0) << "s\n";
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
