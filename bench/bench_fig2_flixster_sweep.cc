// Reproduces Figure 2: average NDCG@{10, 50, 100} of the four framework
// instantiations on Flixster (scale-reduced synthetic substitute),
// ε ∈ {∞, 1.0, 0.6, 0.1, 0.05, 0.01}. As in the paper, recommendations
// are generated for a random user subset while the clustering uses all
// users.
//
// Paper shape to verify: Flixster is markedly more noise-resistant than
// Last.fm — accuracy is flat down to ε = 0.05 and still ≥ ~0.79 at
// ε = 0.01, thanks to the higher average degree and larger clusters.
//
//   ./bench_fig2_flixster_sweep [--trials=3] [--users=12000]
//                               [--items=8000] [--eval_users=1500]
//                               [--table-f32]
//
// --table-f32 appends the quantization gate: the sweep reruns at the
// high-signal grid points (ε ≥ 0.5, where quantization error is not
// drowned by DP noise) with the artifact's f32 noisy-table mirror, and
// the run fails unless |NDCG@50(f64) − NDCG@50(f32)| < 0.001 at every
// point. This is the accuracy budget that licenses serving from the
// half-width table.

#include <cmath>
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
  const int trials = static_cast<int>(flags.GetInt("trials", 3));
  const int64_t num_users = flags.GetInt("users", 12000);
  const int64_t num_items = flags.GetInt("items", 8000);
  const int64_t eval_count = flags.GetInt("eval_users", 1500);
  const bool table_f32 = flags.GetBool("table-f32", false);
  if (!flags.Validate()) return 1;

  std::cout << "=== Figure 2: NDCG@N vs epsilon on Flixster-synth ("
            << num_users << " users, " << trials << " trials, "
            << eval_count << " evaluation users) ===\n\n";
  ScopedTimer total_timer(&obs::GetHistogram(
      "privrec.bench.sweep_ms", obs::ExponentialBuckets(1e3, 4.0, 10)));
  data::SyntheticFlixsterOptions opt;
  opt.num_users = num_users;
  opt.num_items = num_items;
  data::Dataset dataset = data::MakeSyntheticFlixster(opt);
  std::vector<graph::NodeId> users =
      bench::SampleUsers(dataset.social.num_nodes(), eval_count, 23);
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 43});
  std::cout << "clusters: " << louvain.partition.num_clusters()
            << " (Q = " << FormatDouble(louvain.modularity, 3) << ")\n\n";

  const std::vector<int64_t> ns = {10, 50, 100};
  std::map<int64_t, std::map<std::string, std::vector<std::string>>> rows;

  for (const std::string& name : bench::MeasureNames()) {
    auto measure = bench::MakeMeasure(name);
    // Memory-bounded workload: rows stored for the evaluation subset only.
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
    sweep.seed = 2000;
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
    std::cout << "\n--- NDCG@" << n << " (Fig. 2"
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
  if (table_f32) {
    // Quantization gate: same users, same reference, same sweep seeds —
    // the only varied input is the table width, so the delta isolates
    // the f64→f32 rounding cost.
    std::cout << "\n--- f32 quantization gate (NDCG@50, eps >= 0.5) ---\n";
    const std::string name = bench::MeasureNames().front();
    auto measure = bench::MakeMeasure(name);
    similarity::SimilarityWorkload workload =
        similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                        *measure, users);
    core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                     &workload};
    eval::ExactReference reference =
        eval::ExactReference::Compute(context, users, 50);
    eval::SweepOptions sweep;
    for (double eps : bench::PaperEpsilons()) {
      if (eps >= 0.5) sweep.epsilons.push_back(eps);
    }
    sweep.ns = {50};
    sweep.trials = trials;
    sweep.seed = 2000;
    std::vector<eval::SweepCell> f64_cells = eval::RunNdcgSweep(
        bench::ClusterFactory(context, louvain.partition), reference,
        sweep);
    std::vector<eval::SweepCell> f32_cells = eval::RunNdcgSweep(
        bench::ClusterFactory(context, louvain.partition,
                              /*table_f32=*/true),
        reference, sweep);
    constexpr double kMaxNdcgDelta = 0.001;
    bool gate_ok = f64_cells.size() == f32_cells.size();
    for (size_t i = 0; gate_ok && i < f64_cells.size(); ++i) {
      const double delta =
          std::abs(f64_cells[i].mean_ndcg - f32_cells[i].mean_ndcg);
      const bool ok = delta < kMaxNdcgDelta;
      std::cout << "eps=" << bench::EpsilonLabel(f64_cells[i].epsilon)
                << ": f64=" << FormatDouble(f64_cells[i].mean_ndcg, 4)
                << " f32=" << FormatDouble(f32_cells[i].mean_ndcg, 4)
                << " |delta|=" << FormatDouble(delta, 6)
                << (ok ? "  [ok]" : "  [FAIL]") << "\n";
      if (!ok) gate_ok = false;
    }
    if (!gate_ok) {
      std::cerr << "f32 quantization gate FAILED: NDCG@50 moved by >= "
                << kMaxNdcgDelta << " at eps >= 0.5\n";
      return 1;
    }
    std::cout << "f32 quantization gate passed (threshold "
              << kMaxNdcgDelta << ")\n";
  }

  std::cout << "\ntotal time: "
            << FormatDouble(total_timer.ElapsedSeconds(), 0) << "s\n";
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
