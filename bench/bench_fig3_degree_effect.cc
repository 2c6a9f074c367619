// Reproduces Figure 3: per-user NDCG@50 under approximation error alone
// (ε = ∞, CN measure) as a function of social degree, on both datasets.
//
// Paper reference points: users with degree > 10 average NDCG@50 ≈ 0.969
// (Last.fm) / 0.975 (Flixster), while degree ≤ 10 users average ≈ 0.809 /
// 0.871. The bench prints the ≤10 / >10 split plus log-spaced degree bins
// (the textual analogue of the scatter plot).
//
//   ./bench_fig3_degree_effect [--flixster_users=12000]
//                              [--flixster_eval=2000]

#include <cmath>
#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/stats.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "eval/table.h"

namespace privrec {
namespace {

// Writes the per-user (degree, NDCG@50) scatter — the exact data behind
// the paper's Figure 3 plot — to a TSV for external plotting.
void WriteScatter(const std::string& path,
                  const data::Dataset& dataset,
                  const std::vector<graph::NodeId>& users,
                  const eval::ExactReference& reference,
                  const std::vector<core::RecommendationList>& lists) {
  std::ofstream out(path);
  if (!out) return;
  out << "# user\tdegree\tndcg50\n";
  for (size_t k = 0; k < users.size(); ++k) {
    out << users[k] << '\t' << dataset.social.Degree(users[k]) << '\t'
        << reference.Ndcg(users[k], lists[k]) << '\n';
  }
  std::cout << "scatter data written to " << path << "\n\n";
}

void RunDataset(const std::string& label, const data::Dataset& dataset,
                const std::vector<graph::NodeId>& users) {
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 77});
  auto measure = bench::MakeMeasure("CN");
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                      *measure, users);
  core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                   &workload};
  eval::ExactReference reference =
      eval::ExactReference::Compute(context, users, 50);
  // ε = ∞ exercises the noiseless route of the two-phase pipeline: the
  // artifact's noisy-averages table degenerates to the exact cluster
  // averages, isolating approximation error as in the paper.
  std::unique_ptr<core::Recommender> rec = bench::ClusterFactory(
      context, louvain.partition)(dp::kEpsilonInfinity, 5);
  auto lists = rec->Recommend(users, 50);
  WriteScatter("/tmp/privrec_fig3_" + dataset.name + ".tsv", dataset,
               users, reference, lists);

  // Degree-binned statistics (log2 bins) + the paper's <=10 / >10 split.
  const int kBins = 9;  // degrees [1,2), [2,4), ... [256, inf)
  std::vector<RunningStats> bins(kBins);
  RunningStats low;
  RunningStats high;
  for (size_t k = 0; k < users.size(); ++k) {
    double ndcg = reference.Ndcg(users[k], lists[k]);
    int64_t degree = dataset.social.Degree(users[k]);
    (degree <= 10 ? low : high).Add(ndcg);
    int bin = degree < 1
                  ? 0
                  : std::min<int>(kBins - 1,
                                  static_cast<int>(std::log2(
                                      static_cast<double>(degree))));
    bins[static_cast<size_t>(bin)].Add(ndcg);
  }

  std::cout << "--- " << label << " (CN, eps = inf) ---\n";
  std::cout << "degree <= 10: mean NDCG@50 = "
            << FormatDouble(low.mean(), 3) << "  (n=" << low.count()
            << ")   [paper: 0.809 lastfm / 0.871 flixster]\n";
  std::cout << "degree  > 10: mean NDCG@50 = "
            << FormatDouble(high.mean(), 3) << "  (n=" << high.count()
            << ")   [paper: 0.969 lastfm / 0.975 flixster]\n\n";
  eval::TablePrinter table(
      {"degree bin", "users", "mean NDCG@50", "min", "p10"});
  for (int b = 0; b < kBins; ++b) {
    if (bins[static_cast<size_t>(b)].count() == 0) continue;
    int64_t lo = 1ll << b;
    int64_t hi = (1ll << (b + 1)) - 1;
    std::string range = b == kBins - 1
                            ? (">=" + std::to_string(lo))
                            : (std::to_string(lo) + "-" +
                               std::to_string(hi));
    const RunningStats& s = bins[static_cast<size_t>(b)];
    // p10 approximated by mean - 1.28 std clipped to [0,1] would be crude;
    // report min instead of a percentile to keep this streaming.
    table.AddRow({range, std::to_string(s.count()),
                  FormatDouble(s.mean(), 3), FormatDouble(s.min(), 3),
                  FormatDouble(std::max(0.0, s.mean() - 1.28 * s.stddev()),
                               3)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int64_t flixster_users = flags.GetInt("flixster_users", 12000);
  const int64_t flixster_eval = flags.GetInt("flixster_eval", 2000);
  if (!flags.Validate()) return 1;

  std::cout << "=== Figure 3: user degree vs NDCG@50 under approximation "
               "error alone ===\n\n";
  data::Dataset lastfm = data::MakeSyntheticLastFm();
  RunDataset("lastfm-synth (Fig. 3a)", lastfm,
             bench::AllUsers(lastfm.social.num_nodes()));

  data::SyntheticFlixsterOptions opt;
  opt.num_users = flixster_users;
  opt.num_items = 8000;
  data::Dataset flixster = data::MakeSyntheticFlixster(opt);
  RunDataset("flixster-synth (Fig. 3b)", flixster,
             bench::SampleUsers(flixster.social.num_nodes(), flixster_eval,
                                31));
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
