// Tests for the Section 5.1 error decomposition (Equations 5 and 6).

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "community/louvain.h"
#include "community/partition.h"
#include "core/cluster_publisher.h"
#include "core/exact_recommender.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "eval/error_decomposition.h"
#include "similarity/common_neighbors.h"

namespace privrec::eval {
namespace {

using community::Partition;
using graph::NodeId;

class ErrorDecompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(150, 120, 41);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    for (NodeId u = 0; u < dataset_.social.num_nodes(); u += 3) {
      users_.push_back(u);
    }
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  core::RecommenderContext context_;
  std::vector<NodeId> users_;
};

TEST_F(ErrorDecompositionTest, SingletonPartitionHasZeroApproximationError) {
  // With |c| = 1 each "average" IS the edge weight: Equation 6 vanishes.
  auto per_user = DecomposeErrors(
      context_, Partition::Singletons(dataset_.social.num_nodes()), users_,
      {.epsilon = 0.5, .top_n = 20});
  for (const auto& d : per_user) {
    EXPECT_NEAR(d.approximation_error, 0.0, 1e-9) << "user " << d.user;
  }
}

TEST_F(ErrorDecompositionTest,
       SingletonPerturbationEqualsNoeExpectedError) {
  // Size-1 clusters make the framework identical to NOE, so Equation 5's
  // noise term must equal the NOE expected error exactly.
  auto per_user = DecomposeErrors(
      context_, Partition::Singletons(dataset_.social.num_nodes()), users_,
      {.epsilon = 0.3, .top_n = 10});
  for (const auto& d : per_user) {
    EXPECT_NEAR(d.cluster_perturbation_error, d.noe_expected_error, 1e-9)
        << "user " << d.user;
  }
}

TEST_F(ErrorDecompositionTest, InfinityEpsilonZeroesNoiseTerms) {
  auto per_user = DecomposeErrors(
      context_, Partition::Whole(dataset_.social.num_nodes()), users_,
      {.epsilon = dp::kEpsilonInfinity, .top_n = 10});
  for (const auto& d : per_user) {
    EXPECT_DOUBLE_EQ(d.cluster_perturbation_error, 0.0);
    EXPECT_DOUBLE_EQ(d.nou_expected_error, 0.0);
    EXPECT_DOUBLE_EQ(d.noe_expected_error, 0.0);
  }
}

TEST_F(ErrorDecompositionTest, WholePartitionPerturbationFormula) {
  // One cluster of n users: Eq 5 = sqrt(2) * w_max / (eps * n) * rowsum.
  const double eps = 0.4;
  const NodeId n = dataset_.social.num_nodes();
  auto per_user = DecomposeErrors(context_, Partition::Whole(n), users_,
                                  {.epsilon = eps, .top_n = 10});
  for (const auto& d : per_user) {
    double expected = std::sqrt(2.0) / (eps * static_cast<double>(n)) *
                      workload_.RowSum(d.user);
    EXPECT_NEAR(d.cluster_perturbation_error, expected, 1e-9);
  }
}

TEST_F(ErrorDecompositionTest, NouErrorIsUserIndependentAndDominant) {
  community::LouvainResult louvain =
      community::RunLouvain(dataset_.social, {.restarts = 2, .seed = 42});
  auto per_user = DecomposeErrors(context_, louvain.partition, users_,
                                  {.epsilon = 0.5, .top_n = 10});
  double expected_nou =
      std::sqrt(2.0) * workload_.MaxColumnSum() / 0.5;
  for (const auto& d : per_user) {
    EXPECT_NEAR(d.nou_expected_error, expected_nou, 1e-9);
    // The Section 5.1 ordering: NOU >= NOE >= cluster noise.
    EXPECT_GE(d.nou_expected_error, d.noe_expected_error - 1e-9);
    EXPECT_GE(d.noe_expected_error,
              d.cluster_perturbation_error - 1e-9);
  }
}

TEST_F(ErrorDecompositionTest, PerturbationScalesInverselyWithEpsilon) {
  community::LouvainResult louvain =
      community::RunLouvain(dataset_.social, {.restarts = 2, .seed = 43});
  auto strong = DecomposeErrors(context_, louvain.partition, users_,
                                {.epsilon = 0.1, .top_n = 10});
  auto weak = DecomposeErrors(context_, louvain.partition, users_,
                              {.epsilon = 1.0, .top_n = 10});
  for (size_t k = 0; k < users_.size(); ++k) {
    EXPECT_NEAR(strong[k].cluster_perturbation_error,
                10.0 * weak[k].cluster_perturbation_error, 1e-6);
  }
}

TEST_F(ErrorDecompositionTest,
       EquationFiveUpperBoundsEmpiricalUtilityNoise) {
  // Eq 5 sums per-cluster expected magnitudes, so it upper-bounds the
  // std of the actual reconstructed utility (independent noises add in
  // quadrature). Verify empirically on one user/item.
  community::LouvainResult louvain =
      community::RunLouvain(dataset_.social, {.restarts = 2, .seed = 44});
  const double eps = 0.5;
  const NodeId u = users_[1];
  core::ExactRecommender exact(context_);
  auto top = exact.RecommendOne(u, 1);
  ASSERT_FALSE(top.empty());
  const graph::ItemId item = top[0].item;

  // Empirical std of the reconstructed utility.
  core::ClusterPublisher publisher(context_, louvain.partition,
                                   {.epsilon = eps, .seed = 45});
  const int64_t num_items = dataset_.preferences.num_items();
  RunningStats stats;
  for (int t = 0; t < 3000; ++t) {
    auto averages = publisher.ComputeNoisyClusterAverages();
    double estimate = 0.0;
    for (const similarity::SimilarityEntry& e : workload_.Row(u)) {
      int64_t c = louvain.partition.ClusterOf(e.user);
      estimate += e.score * averages[static_cast<size_t>(c * num_items +
                                                         item)];
    }
    stats.Add(estimate);
  }

  auto per_user = DecomposeErrors(context_, louvain.partition, {u},
                                  {.epsilon = eps, .top_n = 1});
  double bound = per_user[0].cluster_perturbation_error;
  EXPECT_LE(stats.stddev(), bound * 1.05);
  EXPECT_GE(stats.stddev(), bound * 0.2);  // same order of magnitude
}

TEST_F(ErrorDecompositionTest, MeanAggregatesFields) {
  std::vector<UserErrorDecomposition> fake(2);
  fake[0].mean_top_utility = 2.0;
  fake[0].approximation_error = 1.0;
  fake[0].nou_expected_error = 10.0;
  fake[1].mean_top_utility = 4.0;
  fake[1].approximation_error = 3.0;
  fake[1].nou_expected_error = 20.0;
  UserErrorDecomposition mean = MeanDecomposition(fake);
  EXPECT_DOUBLE_EQ(mean.mean_top_utility, 3.0);
  EXPECT_DOUBLE_EQ(mean.approximation_error, 2.0);
  EXPECT_DOUBLE_EQ(mean.nou_expected_error, 15.0);
}

TEST_F(ErrorDecompositionTest, EmptyInputGivesZeroMean) {
  UserErrorDecomposition mean = MeanDecomposition({});
  EXPECT_DOUBLE_EQ(mean.mean_top_utility, 0.0);
}

}  // namespace
}  // namespace privrec::eval
