// The Section 2.3 Sybil attack, demonstrated end to end with the attack
// library (core/sybil_attack.h).
//
// Attack recipe from the paper (CN / AA measures):
//   1. the adversary gets a helper node `a` adjacent only to the victim
//      (profile cloning / collusion);
//   2. creates a fake account `b` and befriends `a`;
//   3. reads b's recommendations — since sim(b, ·) is nonzero ONLY for the
//      victim (their sole common-neighbor path runs through `a`), every
//      recommendation b receives is one of the victim's private items.
//
// Against the non-private recommender the attack extracts the victim's
// items verbatim. Against the Cluster mechanism the signal is smoothed
// into a community average plus Laplace noise, and the same inference
// fails. The example quantifies both.
//
//   ./sybil_attack [--epsilon=0.5] [--trials=20]

#include <cstdio>

#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "community/louvain.h"
#include "core/exact_recommender.h"
#include "core/recommender_factory.h"
#include "core/sybil_attack.h"
#include "data/synthetic.h"
#include "similarity/common_neighbors.h"
#include "similarity/workload.h"

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const int trials = static_cast<int>(flags.GetInt("trials", 20));
  if (!flags.Validate()) return 1;

  data::Dataset base = data::MakeTinyDataset(300, 400, 99);
  const graph::NodeId victim = 42;
  core::SybilGadget gadget = core::InjectSybilGadget(
      base.social, base.preferences, victim, /*chain_length=*/1);
  const int64_t top_n = 10;
  std::printf("victim %lld holds %lld private preference edges; adversary "
              "observes sybil node %lld\n",
              static_cast<long long>(victim),
              static_cast<long long>(
                  gadget.preferences.UserDegree(victim)),
              static_cast<long long>(gadget.observer));

  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(
          gadget.social, similarity::CommonNeighbors());
  core::RecommenderContext context{&gadget.social, &gadget.preferences,
                                   &workload};

  // --- Attack on the NON-private recommender ----------------------------
  core::ExactRecommender exact(context);
  core::AttackScore exact_score = core::ScoreSybilInference(
      exact.RecommendOne(gadget.observer, top_n), gadget.preferences,
      victim);
  std::printf(
      "\nnon-private recommender: %lld/%lld observed recommendations are "
      "the victim's private items (precision %.0f%%, recall %.0f%%)\n",
      static_cast<long long>(exact_score.hits),
      static_cast<long long>(exact_score.observed),
      100.0 * exact_score.precision, 100.0 * exact_score.recall);

  // --- Attack on the DP framework ---------------------------------------
  community::LouvainResult louvain =
      community::RunLouvain(gadget.social, {.restarts = 5, .seed = 1});
  core::RecommenderSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = epsilon;
  spec.seed = 2;
  spec.partition = &louvain.partition;
  auto private_rec = core::MakeRecommender(context, spec);
  if (!private_rec.ok()) {
    std::fprintf(stderr, "%s\n", private_rec.status().ToString().c_str());
    return 1;
  }
  RunningStats precision;
  RunningStats recall;
  for (int t = 0; t < trials; ++t) {
    core::AttackScore s = core::ScoreSybilInference(
        (*private_rec)->RecommendOne(gadget.observer, top_n),
        gadget.preferences, victim);
    precision.Add(s.precision);
    recall.Add(s.recall);
  }
  double random_precision =
      static_cast<double>(gadget.preferences.UserDegree(victim)) /
      static_cast<double>(gadget.preferences.num_items());
  std::printf(
      "private recommender (epsilon = %.2f, %d trials): attack precision "
      "%.1f%% +- %.1f%%, recall %.1f%% (random guessing: %.1f%%)\n",
      epsilon, trials, 100.0 * precision.mean(), 100.0 * precision.stddev(),
      100.0 * recall.mean(), 100.0 * random_precision);
  std::printf(
      "\nthe cluster framework folds the victim's edges into a community "
      "average of %lld users plus Laplace noise, so the sybil's view no "
      "longer identifies individual edges — any residual precision above "
      "random reflects shared community tastes, not the victim's data.\n",
      static_cast<long long>(louvain.partition.ClusterSize(
          louvain.partition.ClusterOf(victim))));
  return 0;
}
