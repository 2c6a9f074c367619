// Music-recommendation scenario: the paper's Last.fm motivating workload.
//
// A music service holds listened-to-artist edges (private) and imports
// friendships from a social network (public). It must recommend artists
// without revealing anyone's listening history. This example compares the
// four framework instantiations (CN, GD, AA, KZ) at a user-selected
// privacy level on a Last.fm-shaped synthetic dataset, and shows how the
// privacy budget accountant certifies the end-to-end guarantee.
//
//   ./music_recommendations [--epsilon=0.6] [--users=1892] [--items=17632]

#include <cstdio>
#include <memory>

#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "community/louvain.h"
#include "core/recommender_factory.h"
#include "data/synthetic.h"
#include "dp/budget.h"
#include "eval/exact_reference.h"
#include "eval/table.h"
#include "similarity/adamic_adar.h"
#include "similarity/common_neighbors.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const double epsilon = flags.GetDouble("epsilon", 0.6);
  const int64_t num_users = flags.GetInt("users", 1892);
  const int64_t num_items = flags.GetInt("items", 17632);
  if (!flags.Validate()) return 1;

  data::SyntheticLastFmOptions data_opt;
  data_opt.num_users = num_users;
  data_opt.num_items = num_items;
  data::Dataset dataset = data::MakeSyntheticLastFm(data_opt);
  data::DatasetSummary summary = data::Summarize(dataset);
  std::printf(
      "music service: %lld listeners, %lld artists, %lld listen edges "
      "(avg %.1f per listener)\n",
      static_cast<long long>(summary.num_users),
      static_cast<long long>(summary.num_items),
      static_cast<long long>(summary.num_preference_edges),
      summary.avg_prefs_per_user);

  // One clustering serves every instantiation: it reads only the public
  // friendship graph.
  WallTimer timer;
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 10, .seed = 3});
  std::printf("clustered %lld listeners into %lld communities "
              "(Q = %.3f) in %.1f ms\n",
              static_cast<long long>(num_users),
              static_cast<long long>(louvain.partition.num_clusters()),
              louvain.modularity, timer.ElapsedMillis());

  // Certify the guarantee with the accountant: every (artist, community)
  // average reads a disjoint slice of the listening data, so the whole
  // release costs max (= one) epsilon by parallel composition.
  dp::PrivacyBudget budget(epsilon);
  bool ok = true;
  for (graph::ItemId artist = 0; artist < dataset.preferences.num_items();
       ++artist) {
    ok = ok &&
         budget.Charge("artist_" + std::to_string(artist), epsilon);
  }
  std::printf("privacy accountant: %lld disjoint releases, total spent "
              "epsilon = %.2f of %.2f (ok=%d)\n",
              static_cast<long long>(dataset.preferences.num_items()),
              budget.Spent(), budget.total_epsilon(), ok ? 1 : 0);

  // Evaluate all four instantiations on a sample of listeners.
  std::vector<graph::NodeId> eval_users;
  for (graph::NodeId u = 0; u < dataset.social.num_nodes(); u += 4) {
    eval_users.push_back(u);
  }
  eval::TablePrinter table({"measure", "NDCG@10", "NDCG@50", "time(s)"});
  std::vector<std::unique_ptr<similarity::SimilarityMeasure>> measures;
  measures.push_back(std::make_unique<similarity::CommonNeighbors>());
  measures.push_back(std::make_unique<similarity::GraphDistance>(2));
  measures.push_back(std::make_unique<similarity::AdamicAdar>());
  measures.push_back(std::make_unique<similarity::Katz>(3, 0.05));
  for (const auto& measure : measures) {
    WallTimer measure_timer;
    similarity::SimilarityWorkload workload =
        similarity::SimilarityWorkload::ComputeForUsers(dataset.social,
                                                        *measure,
                                                        eval_users);
    core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                     &workload};
    eval::ExactReference reference =
        eval::ExactReference::Compute(context, eval_users, 50);
    core::RecommenderSpec spec;
    spec.mechanism = "Cluster";
    spec.epsilon = epsilon;
    spec.seed = 11;
    spec.partition = &louvain.partition;
    auto rec = core::MakeRecommender(context, spec);
    if (!rec.ok()) {
      std::fprintf(stderr, "%s\n", rec.status().ToString().c_str());
      return 1;
    }
    auto lists = (*rec)->Recommend(eval_users, 50);
    double ndcg50 = reference.MeanNdcg(lists);
    for (auto& list : lists) {
      if (list.size() > 10) list.resize(10);
    }
    double ndcg10 = reference.MeanNdcg(lists);
    table.AddRow({measure->Name(), FormatDouble(ndcg10, 3),
                  FormatDouble(ndcg50, 3),
                  FormatDouble(measure_timer.ElapsedSeconds(), 1)});
  }
  std::printf("\naccuracy at epsilon = %.2f (evaluated on %zu listeners):\n",
              epsilon, eval_users.size());
  table.Print(std::cout);
  return 0;
}
