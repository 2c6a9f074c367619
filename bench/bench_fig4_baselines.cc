// Reproduces Figure 4: NDCG@50 on Last.fm at ε ∈ {1.0, 0.1} for the two
// naïve baselines (NOU, NOE) and the two adapted mechanisms (LRM [34],
// GS [17]), with the cluster framework alongside for reference.
//
// Following the paper, GS's group size m is chosen per configuration by
// the best resulting NDCG (the paper notes this technically violates DP
// and flatters GS). LRM uses the SVD low-rank strategy; the paper used
// r = rank(W) ≈ 1808 — here r defaults to 200 to keep the dense algebra
// tractable on one core, which if anything *helps* LRM (less noise), yet
// it still loses badly because the workload has near-full rank.
//
// Paper shape to verify: Cluster >> NOE > {GS, LRM} > NOU, with NOU at
// random-guessing level and NOE collapsing from eps = 1.0 to 0.1.
//
//   ./bench_fig4_baselines [--trials=3] [--lrm_rank=200] [--skip_lrm]

#include <algorithm>
#include <array>
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "eval/significance.h"
#include "eval/table.h"

namespace privrec {
namespace {

constexpr int64_t kTopN = 50;

// The GS group-size sweep for the best-NDCG selection. Deliberately
// excludes m on the order of |U| (a single group is a degenerate global
// ranking, no longer a smoothing of personalized answers).
constexpr std::array<int64_t, 4> kGroupSizeCandidates = {8, 32, 128, 512};

std::vector<double> NdcgTrials(core::Recommender* rec,
                               const eval::ExactReference& reference,
                               const std::vector<graph::NodeId>& users,
                               int trials) {
  std::vector<double> out;
  for (int t = 0; t < trials; ++t) {
    out.push_back(reference.MeanNdcg(rec->Recommend(users, kTopN)));
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  RunningStats stats;
  for (double x : v) stats.Add(x);
  return stats.mean();
}

double MeanNdcgOverTrials(core::Recommender* rec,
                          const eval::ExactReference& reference,
                          const std::vector<graph::NodeId>& users,
                          int trials) {
  return Mean(NdcgTrials(rec, reference, users, trials));
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const int trials = static_cast<int>(flags.GetInt("trials", 2));
  const int64_t lrm_rank = flags.GetInt("lrm_rank", 150);
  const bool skip_lrm = flags.GetBool("skip_lrm", false);
  const int64_t eval_count = flags.GetInt("eval_users", 500);
  if (!flags.Validate()) return 1;

  std::cout << "=== Figure 4: baseline comparison on Last.fm, NDCG@50, "
            << trials << " trials ===\n\n";
  ScopedTimer total_timer(&obs::GetHistogram(
      "privrec.bench.sweep_ms", obs::ExponentialBuckets(1e3, 4.0, 10)));
  data::Dataset dataset = data::MakeSyntheticLastFm();
  std::vector<graph::NodeId> users =
      bench::SampleUsers(dataset.social.num_nodes(), eval_count, 19);
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 44});

  for (double eps : {1.0, 0.1}) {
    std::cout << "--- epsilon = " << bench::EpsilonLabel(eps) << " (Fig. 4"
              << (eps == 1.0 ? "a" : "b") << ") ---\n";
    eval::TablePrinter table({"measure", "Cluster", "NOE", "GS(best m)",
                              "LRM", "NOU", "Cluster>NOE p"});
    for (const std::string& name : bench::MeasureNames()) {
      auto measure = bench::MakeMeasure(name);
      // GS samples from every user's similarity row: full workload.
      similarity::SimilarityWorkload workload =
          similarity::SimilarityWorkload::Compute(dataset.social, *measure);
      core::RecommenderContext context{&dataset.social,
                                       &dataset.preferences, &workload};
      eval::ExactReference reference =
          eval::ExactReference::Compute(context, users, kTopN);

      // Extra trials for the two leaders so the Welch test has power.
      const int lead_trials = std::max(trials, 4);

      // The reference baselines draw their per-call noise at serve time,
      // so they all share ONE in-memory artifact that carries the raw
      // preference sections. The cluster mechanism instead redraws its
      // publication every trial: each Recommend of MakeRecommender's
      // "Cluster" builds and serves the next release.
      artifact::ModelArtifactBuilder builder(&dataset.social,
                                             &dataset.preferences);
      builder.SetPartition(&louvain.partition);
      builder.SetWorkload(&workload);
      artifact::BuildOptions build_options;
      build_options.epsilon = eps;
      build_options.seed = 49;  // its own noisy table is never served
      build_options.include_lowrank = !skip_lrm;
      build_options.lrm_target_rank = lrm_rank;
      build_options.lrm_seed = 53;
      auto model = builder.Build(build_options);
      PRIVREC_CHECK_MSG(model.ok(), "baseline artifact build failed");
      auto engine = serving::ServingEngine::FromModel(std::move(*model));
      PRIVREC_CHECK_MSG(engine.ok(), "baseline artifact rejected");
      auto baseline_engine = std::make_shared<const serving::ServingEngine>(
          std::move(*engine));
      auto make = [&](const std::string& mechanism, uint64_t seed,
                      int64_t gs_m) {
        core::RecommenderSpec spec;
        spec.mechanism = mechanism;
        spec.epsilon = eps;
        spec.seed = seed;
        spec.gs_group_size = gs_m;
        auto rec = core::MakeArtifactRecommender(baseline_engine, spec);
        PRIVREC_CHECK_MSG(rec.ok(), "recommender construction failed");
        return std::move(*rec);
      };

      std::vector<double> cluster_trials = NdcgTrials(
          bench::MakeCluster(context, louvain.partition, eps, 50).get(),
          reference, users, lead_trials);
      double cluster_ndcg = Mean(cluster_trials);

      auto noe = make("NOE", 51, 0);
      std::vector<double> noe_trials =
          NdcgTrials(noe.get(), reference, users, lead_trials);
      double noe_ndcg = Mean(noe_trials);
      eval::WelchResult welch = eval::WelchTTest(cluster_trials,
                                                 noe_trials);

      // GS: sweep m, keep the best NDCG (the paper's concession to GS).
      double gs_ndcg = 0.0;
      int64_t best_m = 0;
      for (int64_t m : kGroupSizeCandidates) {
        auto gs = make("GS", 52, m);
        double ndcg =
            MeanNdcgOverTrials(gs.get(), reference, users, trials);
        if (ndcg > gs_ndcg) {
          gs_ndcg = ndcg;
          best_m = m;
        }
      }

      double lrm_ndcg = 0.0;
      if (!skip_lrm) {
        auto lrm = make("LRM", 53, 0);
        lrm_ndcg = MeanNdcgOverTrials(lrm.get(), reference, users, trials);
      }

      auto nou = make("NOU", 54, 0);
      double nou_ndcg =
          MeanNdcgOverTrials(nou.get(), reference, users, trials);

      table.AddRow({name, FormatDouble(cluster_ndcg, 3),
                    FormatDouble(noe_ndcg, 3),
                    FormatDouble(gs_ndcg, 3) + " (m=" +
                        std::to_string(best_m) + ")",
                    skip_lrm ? "-" : FormatDouble(lrm_ndcg, 3),
                    FormatDouble(nou_ndcg, 3),
                    welch.p_value < 0.001
                        ? "<0.001"
                        : FormatDouble(welch.p_value, 3)});
      std::cout << "  " << name << " done ("
                << FormatDouble(total_timer.ElapsedSeconds(), 0) << "s)\n";
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "total time: "
            << FormatDouble(total_timer.ElapsedSeconds(), 0) << "s\n";
  return 0;
}

}  // namespace
}  // namespace privrec

int main(int argc, char** argv) { return privrec::Main(argc, argv); }
