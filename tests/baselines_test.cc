// Tests for the baseline mechanisms NOU, NOE, GS and LRM, as
// core::MakeRecommender serves them, and for the LRM factorization.

#include <set>

#include <gtest/gtest.h>

#include "artifact/builder.h"
#include "community/partition.h"
#include "core/exact_recommender.h"
#include "core/low_rank_factorization.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "eval/exact_reference.h"
#include "mechanisms.h"
#include "similarity/common_neighbors.h"

namespace privrec::core {
namespace {

using graph::ItemId;
using graph::NodeId;

class BaselinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(/*num_users=*/150, /*num_items=*/120,
                                     /*seed=*/6);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    for (NodeId u = 0; u < dataset_.social.num_nodes(); ++u) {
      all_users_.push_back(u);
    }
  }

  // Lists must rank items identically on the exact recommender's nonzero
  // prefix.
  void ExpectMatchesExactPrefix(
      const std::vector<RecommendationList>& lists) {
    ExactRecommender exact(context_);
    auto truth = exact.Recommend(all_users_, 10);
    for (size_t k = 0; k < all_users_.size(); ++k) {
      for (size_t p = 0; p < truth[k].size(); ++p) {
        ASSERT_LT(p, lists[k].size());
        EXPECT_EQ(lists[k][p].item, truth[k][p].item)
            << "user " << all_users_[k] << " position " << p;
      }
    }
  }

  std::unique_ptr<Recommender> Make(const RecommenderSpec& spec) {
    return test_mechanisms::Make(context_, spec);
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  RecommenderContext context_;
  std::vector<NodeId> all_users_;
};

// -------------------------------------------------------------------- NOU

TEST_F(BaselinesTest, NouWithoutNoiseEqualsExact) {
  auto rec = Make(
      {.mechanism = "NOU", .epsilon = dp::kEpsilonInfinity, .seed = 1});
  ExpectMatchesExactPrefix(rec->Recommend(all_users_, 10));
}

TEST_F(BaselinesTest, NouSensitivityIsWorkloadColumnSum) {
  // NOU serves at Δ_A = workload.max_column_sum × meta.max_weight of the
  // model it was built into.
  artifact::ModelArtifactBuilder builder(&dataset_.social,
                                         &dataset_.preferences);
  const community::Partition whole =
      community::Partition::Whole(dataset_.social.num_nodes());
  builder.SetPartition(&whole);
  builder.SetWorkload(&workload_);
  artifact::BuildOptions options;
  options.epsilon = 1.0;
  options.seed = 2;
  auto model = builder.Build(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const double sensitivity =
      model->workload.max_column_sum * model->meta.max_weight;
  EXPECT_DOUBLE_EQ(sensitivity, workload_.MaxColumnSum());
  EXPECT_GT(sensitivity, 1.0);  // far above the per-edge scale
}

TEST_F(BaselinesTest, NouAtModerateEpsilonIsNearRandom) {
  // The paper's headline negative result: NOU recommendations are "no
  // better than random guessing" even at lenient settings. Compare
  // against an actual uniform-random ranking baseline (on a small catalog
  // random guessing scores nontrivially, so an absolute threshold would
  // be wrong).
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, all_users_, 10);
  auto rec = Make({.mechanism = "NOU", .epsilon = 1.0, .seed = 3});
  double nou_ndcg = ref.MeanNdcg(rec->Recommend(all_users_, 10));

  Rng rng(4);
  std::vector<RecommendationList> random_lists;
  for (size_t k = 0; k < all_users_.size(); ++k) {
    RecommendationList list;
    for (uint64_t raw : rng.SampleWithoutReplacement(
             static_cast<uint64_t>(dataset_.preferences.num_items()), 10)) {
      list.push_back({static_cast<graph::ItemId>(raw), 0.0});
    }
    random_lists.push_back(std::move(list));
  }
  double random_ndcg = ref.MeanNdcg(random_lists);
  // NOU must be indistinguishable from random guessing (generous slack
  // for sampling noise) and nowhere near the exact recommender's 1.0.
  EXPECT_LT(nou_ndcg, random_ndcg + 0.1);
  EXPECT_LT(nou_ndcg, 0.5);
}

// -------------------------------------------------------------------- NOE

TEST_F(BaselinesTest, NoeWithoutNoiseEqualsExact) {
  auto rec = Make(
      {.mechanism = "NOE", .epsilon = dp::kEpsilonInfinity, .seed = 4});
  ExpectMatchesExactPrefix(rec->Recommend(all_users_, 10));
}

TEST_F(BaselinesTest, NoeDeterministicForSeed) {
  const RecommenderSpec spec{.mechanism = "NOE", .epsilon = 1.0, .seed = 5};
  EXPECT_EQ(Make(spec)->Recommend({0, 1}, 5),
            Make(spec)->Recommend({0, 1}, 5));
}

TEST_F(BaselinesTest, NoeBeatsNouAtWeakPrivacy) {
  // Matches Figure 4(a): NOE performs much better than NOU at eps = 1.0.
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, all_users_, 10);
  auto noe = Make({.mechanism = "NOE", .epsilon = 1.0, .seed = 6});
  auto nou = Make({.mechanism = "NOU", .epsilon = 1.0, .seed = 6});
  double noe_ndcg = ref.MeanNdcg(noe->Recommend(all_users_, 10));
  double nou_ndcg = ref.MeanNdcg(nou->Recommend(all_users_, 10));
  EXPECT_GT(noe_ndcg, nou_ndcg);
}

// --------------------------------------------------------------------- GS

TEST_F(BaselinesTest, GsProducesFullLengthRankings) {
  auto rec = Make({.mechanism = "GS",
                   .epsilon = 1.0,
                   .seed = 7,
                   .gs_group_size = 32});
  auto lists = rec->Recommend({0, 5, 9}, 10);
  ASSERT_EQ(lists.size(), 3u);
  for (const auto& list : lists) {
    EXPECT_EQ(list.size(), 10u);
    // Items must be distinct.
    std::set<ItemId> items;
    for (const auto& r : list) items.insert(r.item);
    EXPECT_EQ(items.size(), list.size());
  }
}

TEST_F(BaselinesTest, GsDeterministicForSeed) {
  const RecommenderSpec spec{
      .mechanism = "GS", .epsilon = 0.5, .seed = 8, .gs_group_size = 16};
  EXPECT_EQ(Make(spec)->Recommend({0, 1, 2}, 5),
            Make(spec)->Recommend({0, 1, 2}, 5));
}

TEST_F(BaselinesTest, GsGroupSizeOneWithoutNoiseEqualsExact) {
  // m = 1 means every query is its own group: the group mean IS the true
  // utility, so eps = inf reproduces exact rankings.
  auto rec = Make({.mechanism = "GS",
                   .epsilon = dp::kEpsilonInfinity,
                   .seed = 9,
                   .gs_group_size = 1});
  ExpectMatchesExactPrefix(rec->Recommend(all_users_, 10));
}

TEST_F(BaselinesTest, GsSmoothingDegradesWithGiantGroups) {
  // With m = |U| every user gets the same utility for an item — rankings
  // lose all personalization and NDCG drops well below the exact prefix.
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, all_users_, 10);
  auto rec = Make({.mechanism = "GS",
                   .epsilon = dp::kEpsilonInfinity,
                   .seed = 10,
                   .gs_group_size = 100000});
  double ndcg = ref.MeanNdcg(rec->Recommend(all_users_, 10));
  EXPECT_LT(ndcg, 0.9);
}

// -------------------------------------------------------------------- LRM

TEST_F(BaselinesTest, LrmFactorizationReportsQuality) {
  LowRankFactorization lrm(context_, {.target_rank = 40, .seed = 11});
  EXPECT_EQ(lrm.rank(), 40);
  EXPECT_GT(lrm.noise_sensitivity(), 0.0);
  EXPECT_GE(lrm.factorization_error(), 0.0);
  EXPECT_LT(lrm.factorization_error(), 1.0);
}

TEST_F(BaselinesTest, LrmFullRankWithoutNoiseScoresPerfectNdcg) {
  // At full rank the factorization is (numerically) exact, so eps = inf
  // reproduces the exact utilities. The ~1e-10 reconstruction residue can
  // flip exact ties, so compare by NDCG (tie swaps carry no penalty)
  // rather than item-by-item.
  EXPECT_LT(LowRankFactorization(context_, {.target_rank = 150, .seed = 12})
                .factorization_error(),
            1e-6);
  auto rec = Make({.mechanism = "LRM",
                   .epsilon = dp::kEpsilonInfinity,
                   .seed = 12,
                   .lrm_target_rank = 150});
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, all_users_, 10);
  EXPECT_NEAR(ref.MeanNdcg(rec->Recommend(all_users_, 10)), 1.0, 1e-6);
}

TEST_F(BaselinesTest, LrmHigherRankReducesFactorizationError) {
  LowRankFactorization low(context_, {.target_rank = 10, .seed = 13});
  LowRankFactorization high(context_, {.target_rank = 80, .seed = 13});
  EXPECT_LT(high.factorization_error(), low.factorization_error() + 1e-12);
}

TEST_F(BaselinesTest, LrmDeterministicForSeed) {
  const RecommenderSpec spec{.mechanism = "LRM",
                             .epsilon = 0.5,
                             .seed = 14,
                             .lrm_target_rank = 30};
  EXPECT_EQ(Make(spec)->Recommend({0, 3}, 5),
            Make(spec)->Recommend({0, 3}, 5));
}

// ------------------------------------------------- Cross-mechanism shape

TEST_F(BaselinesTest, AllMechanismNamesAreDistinct) {
  std::set<std::string> names;
  for (const char* mechanism : {"NOU", "NOE", "GS", "LRM"}) {
    auto rec = Make({.mechanism = mechanism, .lrm_target_rank = 10});
    EXPECT_EQ(rec->Name(), mechanism);
    names.insert(rec->Name());
  }
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace privrec::core
