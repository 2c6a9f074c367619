// E4: the Section 5.1 rationale, in numbers. For each ε, prints the
// signal scale (mean exact top-50 utility) next to the expected error of
// each mechanism per Equations (5)-(6) and §5.1.1:
//   - NOU's noise is calibrated to Δ_A = max_v Σ_u sim(u,v) and exceeds
//     the signal by orders of magnitude ("the magnitude of the noise ...
//     will greatly exceed the actual value");
//   - NOE's noise accumulates over the whole similarity set ("the error
//     is expected to drown out the true signal");
//   - the framework's perturbation error shrinks by 1/|c| and its
//     approximation error (ε-independent) is a small fraction of the
//     signal — the trade the paper's Section 5 is about.
//
//   ./bench_error_decomposition [--eval_users=600]

#include <iostream>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "eval/error_decomposition.h"
#include "eval/table.h"

namespace privrec {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int64_t eval_count = flags.GetInt("eval_users", 600);
  if (!flags.Validate()) return 1;

  std::cout << "=== E4: error decomposition (Section 5.1 quantified; "
               "Last.fm, CN, exact top-50) ===\n\n";
  data::Dataset dataset = data::MakeSyntheticLastFm();
  std::vector<graph::NodeId> users =
      bench::SampleUsers(dataset.social.num_nodes(), eval_count, 71);
  auto measure = bench::MakeMeasure("CN");
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                      *measure, users);
  core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                   &workload};
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 72});

  eval::TablePrinter table({"eps", "signal (mean top util)",
                            "cluster approx err", "cluster noise err",
                            "NOE noise err", "NOU noise err"});
  for (double eps : {1.0, 0.6, 0.1, 0.01}) {
    auto per_user = eval::DecomposeErrors(
        context, louvain.partition, users,
        {.epsilon = eps, .top_n = 50});
    eval::UserErrorDecomposition mean =
        eval::MeanDecomposition(per_user);
    table.AddRow({bench::EpsilonLabel(eps),
                  FormatDouble(mean.mean_top_utility, 2),
                  FormatDouble(mean.approximation_error, 2),
                  FormatDouble(mean.cluster_perturbation_error, 2),
                  FormatDouble(mean.noe_expected_error, 1),
                  FormatDouble(mean.nou_expected_error, 0)});
  }
  table.Print(std::cout);
  std::cout
      << "\nreading: recommendations survive when the error column is "
         "small relative to the signal column. The framework's noise "
         "term crosses the signal between eps = 0.1 and 0.01 (matching "
         "Figure 1's collapse); NOE crosses around eps = 1; NOU never "
         "comes close — the Section 5.1 rationale, quantified.\n";
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
