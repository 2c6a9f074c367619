// Ablation A2: similarity-measure hyper-parameters (the paper fixes
// GD's cutoff d = 2 and Katz's k = 3, α = 0.05; its future work asks how
// sensitive the framework is to these choices).
//
// Sweeps GD's distance cutoff d ∈ {1, 2, 3} and Katz's damping
// α ∈ {0.005, 0.05, 0.5} × length cutoff k ∈ {1, 2, 3} on Last.fm,
// reporting workload shape (similarity-set size, NOU-style sensitivity)
// and framework NDCG@50 at ε ∈ {∞, 0.1}.
//
//   ./bench_ablation_similarity [--trials=3] [--eval_users=800]

#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/stats.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "eval/table.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"

namespace privrec {
namespace {

struct Variant {
  std::string name;
  std::unique_ptr<similarity::SimilarityMeasure> measure;
};

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int trials = static_cast<int>(flags.GetInt("trials", 3));
  const int64_t eval_count = flags.GetInt("eval_users", 800);
  if (!flags.Validate()) return 1;

  std::cout << "=== Ablation A2: similarity hyper-parameters (Last.fm, "
               "NDCG@50, " << trials << " trials) ===\n\n";
  data::Dataset dataset = data::MakeSyntheticLastFm();
  std::vector<graph::NodeId> users =
      bench::SampleUsers(dataset.social.num_nodes(), eval_count, 37);
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 71});

  std::vector<Variant> variants;
  for (int64_t d : {1, 2, 3}) {
    variants.push_back({"GD d=" + std::to_string(d),
                        std::make_unique<similarity::GraphDistance>(d)});
  }
  for (double alpha : {0.005, 0.05, 0.5}) {
    for (int64_t k : {1, 2, 3}) {
      variants.push_back(
          {"KZ k=" + std::to_string(k) + " a=" + FormatDouble(alpha, 3),
           std::make_unique<similarity::Katz>(k, alpha)});
    }
  }

  eval::TablePrinter table({"variant", "avg |sim(u)|", "sensitivity",
                            "NDCG@50 eps=inf", "NDCG@50 eps=0.1"});
  for (const Variant& v : variants) {
    similarity::SimilarityWorkload workload =
        similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                        *v.measure, users);
    core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                     &workload};
    eval::ExactReference reference =
        eval::ExactReference::Compute(context, users, 50);
    std::vector<std::string> row = {
        v.name, FormatDouble(workload.AverageRowSize(), 0),
        FormatDouble(workload.MaxColumnSum(), 1)};
    for (double eps : {dp::kEpsilonInfinity, 0.1}) {
      auto rec = bench::MakeCluster(context, louvain.partition, eps, 72);
      RunningStats stats;
      int reps = eps == dp::kEpsilonInfinity ? 1 : trials;
      for (int t = 0; t < reps; ++t) {
        stats.Add(reference.MeanNdcg(rec->Recommend(users, 50)));
      }
      row.push_back(FormatDouble(stats.mean(), 3));
    }
    table.AddRow(row);
    std::cout << "  " << v.name << " done\n";
  }
  std::cout << "\n";
  table.Print(std::cout);
  std::cout << "\nnote: avg |sim(u)| is measured over the evaluation "
               "subset; sensitivity is the NOU-style max column sum over "
               "all users.\n";
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
