// Tests for the Section 2.3 Sybil attack library: gadget construction,
// perfect leakage against the non-private recommender (for every
// similarity measure with an appropriate chain length), and the framework
// blunting the same attack.

#include <memory>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "community/louvain.h"
#include "core/exact_recommender.h"
#include "core/sybil_attack.h"
#include "data/synthetic.h"
#include "mechanisms.h"
#include "similarity/adamic_adar.h"
#include "similarity/common_neighbors.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"
#include "similarity/workload.h"

namespace privrec::core {
namespace {

using graph::NodeId;

class SybilAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(200, 150, 31);
    victim_ = 25;
    ASSERT_GT(dataset_.preferences.UserDegree(victim_), 5);
  }

  data::Dataset dataset_;
  NodeId victim_ = 0;
};

TEST_F(SybilAttackTest, GadgetShape) {
  SybilGadget gadget = InjectSybilGadget(dataset_.social,
                                         dataset_.preferences, victim_, 2);
  // Two extra chain nodes plus the helper.
  EXPECT_EQ(gadget.social.num_nodes(), dataset_.social.num_nodes() + 3);
  EXPECT_EQ(gadget.preferences.num_users(), gadget.social.num_nodes());
  // Helper: degree 2 (victim + first sybil); observer: degree 1.
  EXPECT_EQ(gadget.social.Degree(gadget.helper), 2);
  EXPECT_EQ(gadget.social.Degree(gadget.observer), 1);
  EXPECT_TRUE(gadget.social.HasEdge(victim_, gadget.helper));
  // Sybils hold no preferences.
  EXPECT_EQ(gadget.preferences.UserDegree(gadget.helper), 0);
  EXPECT_EQ(gadget.preferences.UserDegree(gadget.observer), 0);
  // Original edges untouched.
  EXPECT_EQ(gadget.preferences.num_edges(),
            dataset_.preferences.num_edges());
}

TEST_F(SybilAttackTest, ObserverSimilarOnlyToVictimUnderCn) {
  SybilGadget gadget = InjectSybilGadget(dataset_.social,
                                         dataset_.preferences, victim_, 1);
  similarity::CommonNeighbors cn;
  similarity::DenseScratch scratch;
  auto row = cn.Row(gadget.social, gadget.observer, &scratch);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].user, victim_);
}

struct MeasureCase {
  std::string name;
  int64_t chain_length;
};

class SybilPerMeasureTest : public ::testing::TestWithParam<MeasureCase> {};

TEST_P(SybilPerMeasureTest, ExactRecommenderLeaksPerfectly) {
  data::Dataset dataset = data::MakeTinyDataset(200, 150, 31);
  const NodeId victim = 25;
  const MeasureCase& param = GetParam();
  SybilGadget gadget = InjectSybilGadget(
      dataset.social, dataset.preferences, victim, param.chain_length);

  std::unique_ptr<similarity::SimilarityMeasure> measure;
  if (param.name == "CN") {
    measure = std::make_unique<similarity::CommonNeighbors>();
  } else if (param.name == "AA") {
    measure = std::make_unique<similarity::AdamicAdar>();
  } else if (param.name == "GD") {
    measure = std::make_unique<similarity::GraphDistance>(2);
  } else {
    measure = std::make_unique<similarity::Katz>(3, 0.05);
  }
  auto workload =
      similarity::SimilarityWorkload::Compute(gadget.social, *measure);
  RecommenderContext ctx{&gadget.social, &gadget.preferences, &workload};
  ExactRecommender exact(ctx);
  int64_t n = std::min<int64_t>(
      5, dataset.preferences.UserDegree(victim));
  RecommendationList leak = exact.RecommendOne(gadget.observer, n);
  AttackScore score =
      ScoreSybilInference(leak, gadget.preferences, victim);
  EXPECT_EQ(score.observed, n) << param.name;
  EXPECT_DOUBLE_EQ(score.precision, 1.0) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Measures, SybilPerMeasureTest,
    ::testing::Values(MeasureCase{"CN", 1}, MeasureCase{"AA", 1},
                      MeasureCase{"GD", 1}, MeasureCase{"KZ", 2}),
    [](const auto& info) { return info.param.name; });

TEST_F(SybilAttackTest, FrameworkBluntsTheAttack) {
  SybilGadget gadget = InjectSybilGadget(dataset_.social,
                                         dataset_.preferences, victim_, 1);
  auto workload = similarity::SimilarityWorkload::Compute(
      gadget.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&gadget.social, &gadget.preferences, &workload};
  community::LouvainResult louvain =
      community::RunLouvain(gadget.social, {.restarts = 3, .seed = 32});
  auto private_rec =
      test_mechanisms::MakeCluster(ctx, louvain.partition, 0.1, 33);
  ExactRecommender exact(ctx);

  const int64_t n = 10;
  AttackScore exact_score = ScoreSybilInference(
      exact.RecommendOne(gadget.observer, n), gadget.preferences, victim_);
  RunningStats private_precision;
  for (int t = 0; t < 10; ++t) {
    AttackScore s = ScoreSybilInference(
        private_rec->RecommendOne(gadget.observer, n), gadget.preferences,
        victim_);
    private_precision.Add(s.precision);
  }
  EXPECT_DOUBLE_EQ(exact_score.precision, 1.0);
  EXPECT_LT(private_precision.mean(), 0.6);
}

TEST_F(SybilAttackTest, ScoreHandlesEmptyObservation) {
  AttackScore score =
      ScoreSybilInference({}, dataset_.preferences, victim_);
  EXPECT_EQ(score.observed, 0);
  EXPECT_DOUBLE_EQ(score.precision, 0.0);
  EXPECT_DOUBLE_EQ(score.recall, 0.0);
}

TEST_F(SybilAttackTest, RecallCountsLeakedFraction) {
  // Observe a list containing exactly 3 of the victim's items plus one
  // item the victim provably does not hold.
  auto items = dataset_.preferences.ItemsOf(victim_);
  ASSERT_GE(items.size(), 3u);
  graph::ItemId absent = -1;
  for (graph::ItemId i = 0; i < dataset_.preferences.num_items(); ++i) {
    if (dataset_.preferences.Weight(victim_, i) == 0.0) {
      absent = i;
      break;
    }
  }
  ASSERT_GE(absent, 0);
  RecommendationList observed = {
      {items[0], 1.0}, {items[1], 0.9}, {items[2], 0.8}, {absent, 0.7}};
  AttackScore score =
      ScoreSybilInference(observed, dataset_.preferences, victim_);
  EXPECT_EQ(score.hits, 3);
  EXPECT_DOUBLE_EQ(score.precision, 0.75);
  EXPECT_NEAR(score.recall,
              3.0 / static_cast<double>(items.size()), 1e-12);
}

}  // namespace
}  // namespace privrec::core
