// End-to-end integration tests: the full pipeline (generate data, compute
// similarities, cluster, recommend privately, score NDCG) for every
// (measure, mechanism) combination, plus the paper's qualitative ordering
// claims on a small dataset.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "community/louvain.h"
#include "core/exact_recommender.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "eval/exact_reference.h"
#include "mechanisms.h"
#include "similarity/adamic_adar.h"
#include "similarity/common_neighbors.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"

namespace privrec {
namespace {

using core::RecommenderContext;
using test_mechanisms::Make;
using test_mechanisms::MakeCluster;
using graph::NodeId;

std::unique_ptr<similarity::SimilarityMeasure> MakeMeasure(
    const std::string& name) {
  if (name == "CN") return std::make_unique<similarity::CommonNeighbors>();
  if (name == "AA") return std::make_unique<similarity::AdamicAdar>();
  if (name == "GD") return std::make_unique<similarity::GraphDistance>(2);
  return std::make_unique<similarity::Katz>(3, 0.05);
}

class PipelineTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(250, 200, 12);
    measure_ = MakeMeasure(GetParam());
    workload_ =
        similarity::SimilarityWorkload::Compute(dataset_.social, *measure_);
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    for (NodeId u = 0; u < dataset_.social.num_nodes(); ++u) {
      users_.push_back(u);
    }
    louvain_ =
        community::RunLouvain(dataset_.social, {.restarts = 3, .seed = 13});
  }

  data::Dataset dataset_;
  std::unique_ptr<similarity::SimilarityMeasure> measure_;
  similarity::SimilarityWorkload workload_;
  RecommenderContext context_;
  std::vector<NodeId> users_;
  community::LouvainResult louvain_;
};

TEST_P(PipelineTest, EveryMechanismProducesValidBoundedNdcg) {
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, users_, 10);

  std::vector<std::unique_ptr<core::Recommender>> mechanisms;
  for (const char* mechanism : {"Cluster", "NOU", "NOE", "GS", "LRM"}) {
    mechanisms.push_back(Make(context_, {.mechanism = mechanism,
                                         .epsilon = 0.5,
                                         .seed = 14,
                                         .partition = &louvain_.partition,
                                         .gs_group_size = 32,
                                         .lrm_target_rank = 60}));
  }

  for (auto& mech : mechanisms) {
    auto lists = mech->Recommend(users_, 10);
    ASSERT_EQ(lists.size(), users_.size()) << mech->Name();
    double ndcg = ref.MeanNdcg(lists);
    EXPECT_GE(ndcg, 0.0) << mech->Name();
    EXPECT_LE(ndcg, 1.0 + 1e-9) << mech->Name();
    for (const auto& list : lists) {
      EXPECT_LE(list.size(), 10u) << mech->Name();
    }
  }
}

TEST_P(PipelineTest, ClusterFrameworkApproximationErrorIsModest) {
  // eps = inf isolates approximation error; the paper reports NDCG@50
  // >= ~0.8 on both datasets. On the tiny graph we expect a clearly
  // non-trivial score.
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, users_, 10);
  auto rec =
      MakeCluster(context_, louvain_.partition, dp::kEpsilonInfinity, 15);
  double ndcg = ref.MeanNdcg(rec->Recommend(users_, 10));
  EXPECT_GT(ndcg, 0.55) << "approximation error too high for "
                        << GetParam();
}

TEST_P(PipelineTest, ClusterBeatsNouAndNoeAtModeratePrivacy) {
  // The paper's Figure 4 ordering: Cluster >> NOE > NOU at eps = 0.1..1.
  eval::ExactReference ref =
      eval::ExactReference::Compute(context_, users_, 10);
  const double eps = 0.2;
  auto mean_over_trials = [&](auto&& make) {
    double acc = 0.0;
    for (uint64_t t = 0; t < 3; ++t) {
      auto rec = make(t);
      acc += ref.MeanNdcg(rec->Recommend(users_, 10));
    }
    return acc / 3.0;
  };
  double cluster = mean_over_trials([&](uint64_t t) {
    return MakeCluster(context_, louvain_.partition, eps, 16 + t);
  });
  double nou = mean_over_trials([&](uint64_t t) {
    return Make(context_, {.mechanism = "NOU", .epsilon = eps, .seed = 16 + t});
  });
  EXPECT_GT(cluster, nou + 0.1) << GetParam();
}

TEST_P(PipelineTest, SingletonClustersWithoutNoiseMatchExactForEveryMeasure) {
  // The Algorithm-1 degeneracy must hold for every similarity measure:
  // singleton clusters at eps = inf reproduce the exact rankings.
  const community::Partition singletons =
      community::Partition::Singletons(dataset_.social.num_nodes());
  auto degenerate =
      MakeCluster(context_, singletons, dp::kEpsilonInfinity, 30);
  core::ExactRecommender exact(context_);
  std::vector<NodeId> sample = {0, 25, 50, 75, 100};
  auto noisy = degenerate->Recommend(sample, 10);
  auto truth = exact.Recommend(sample, 10);
  for (size_t k = 0; k < sample.size(); ++k) {
    for (size_t p = 0; p < truth[k].size(); ++p) {
      EXPECT_EQ(noisy[k][p].item, truth[k][p].item)
          << GetParam() << " user " << sample[k] << " pos " << p;
      EXPECT_NEAR(noisy[k][p].utility, truth[k][p].utility, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, PipelineTest,
                         ::testing::Values("CN", "AA", "GD", "KZ"),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------- non-parameterized

TEST(IntegrationTest, FullPipelineIsDeterministicEndToEnd) {
  auto run_once = []() {
    data::Dataset d = data::MakeTinyDataset(150, 120, 19);
    auto workload = similarity::SimilarityWorkload::Compute(
        d.social, similarity::CommonNeighbors());
    RecommenderContext ctx{&d.social, &d.preferences, &workload};
    auto louvain = community::RunLouvain(d.social, {.restarts = 2,
                                                    .seed = 20});
    std::vector<NodeId> users = {0, 10, 20, 30};
    return MakeCluster(ctx, louvain.partition, 0.3, 21)->Recommend(users, 8);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(IntegrationTest, FlixsterLikePipelineWithSubsetWorkload) {
  // Exercises the ComputeForUsers memory-bounded path used by the Figure 2
  // bench: recommendations for a user subset only.
  data::SyntheticFlixsterOptions opt;
  opt.num_users = 1500;
  opt.num_items = 800;
  data::Dataset d = data::MakeSyntheticFlixster(opt);
  std::vector<NodeId> eval_users;
  for (NodeId u = 0; u < 100; ++u) eval_users.push_back(u * 15);
  auto workload = similarity::SimilarityWorkload::ComputeForUsers(
      d.social, similarity::AdamicAdar(), eval_users);
  RecommenderContext ctx{&d.social, &d.preferences, &workload};
  auto louvain = community::RunLouvain(d.social, {.restarts = 2,
                                                  .seed = 23});
  eval::ExactReference ref =
      eval::ExactReference::Compute(ctx, eval_users, 10);
  auto rec = MakeCluster(ctx, louvain.partition, 0.1, 24);
  double ndcg = ref.MeanNdcg(rec->Recommend(eval_users, 10));
  EXPECT_GT(ndcg, 0.2);
  EXPECT_LE(ndcg, 1.0 + 1e-9);
}

TEST(IntegrationTest, LowDegreeUsersSufferMoreApproximationError) {
  // Figure 3's effect: at eps = inf, users with degree <= 10 average lower
  // NDCG than users with degree > 10.
  data::Dataset d = data::MakeTinyDataset(400, 300, 25);
  auto workload = similarity::SimilarityWorkload::Compute(
      d.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&d.social, &d.preferences, &workload};
  auto louvain = community::RunLouvain(d.social, {.restarts = 3,
                                                  .seed = 26});
  std::vector<NodeId> users;
  for (NodeId u = 0; u < d.social.num_nodes(); ++u) users.push_back(u);
  eval::ExactReference ref = eval::ExactReference::Compute(ctx, users, 10);
  auto lists = MakeCluster(ctx, louvain.partition, dp::kEpsilonInfinity, 27)
                   ->Recommend(users, 10);
  double low_sum = 0.0;
  double high_sum = 0.0;
  int64_t low_count = 0;
  int64_t high_count = 0;
  for (size_t k = 0; k < users.size(); ++k) {
    double ndcg = ref.Ndcg(users[k], lists[k]);
    if (d.social.Degree(users[k]) <= 10) {
      low_sum += ndcg;
      ++low_count;
    } else {
      high_sum += ndcg;
      ++high_count;
    }
  }
  ASSERT_GT(low_count, 0);
  ASSERT_GT(high_count, 0);
  EXPECT_GT(high_sum / static_cast<double>(high_count),
            low_sum / static_cast<double>(low_count));
}

}  // namespace
}  // namespace privrec
