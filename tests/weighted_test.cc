// Tests for the weighted-preference-edge extension: weighted
// PreferenceGraph construction, weighted utilities, sensitivity scaling in
// the DP mechanisms, the weighted generator and the Flixster
// binarize=false path.

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "artifact/builder.h"
#include "community/partition.h"
#include "core/cluster_publisher.h"
#include "core/exact_recommender.h"
#include "data/flixster.h"
#include "dp/mechanisms.h"
#include "graph/generators/preference_generator.h"
#include "graph/preference_graph.h"
#include "similarity/common_neighbors.h"

namespace privrec {
namespace {

using graph::ItemId;
using graph::NodeId;
using graph::PreferenceEdge;
using graph::PreferenceGraph;
using graph::SocialGraph;

// ----------------------------------------------------- weighted graph

TEST(WeightedPreferenceGraphTest, StoresWeights) {
  PreferenceGraph g = PreferenceGraph::FromWeightedEdges(
      2, 3, {{0, 0, 2.5}, {0, 2, 4.0}, {1, 2, 0.5}});
  EXPECT_TRUE(g.is_weighted());
  EXPECT_DOUBLE_EQ(g.Weight(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(g.Weight(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(g.Weight(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(g.Weight(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.max_weight(), 4.0);
}

TEST(WeightedPreferenceGraphTest, UnweightedDefaultsToOne) {
  PreferenceGraph g = PreferenceGraph::FromEdges(1, 2, {{0, 0}, {0, 1}});
  EXPECT_FALSE(g.is_weighted());
  EXPECT_DOUBLE_EQ(g.max_weight(), 1.0);
  auto weights = g.WeightsOf(0);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);
}

TEST(WeightedPreferenceGraphTest, DuplicateKeepsLargestWeight) {
  PreferenceGraph g = PreferenceGraph::FromWeightedEdges(
      1, 1, {{0, 0, 2.0}, {0, 0, 5.0}, {0, 0, 3.0}});
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.Weight(0, 0), 5.0);
}

TEST(WeightedPreferenceGraphTest, ItemOrientationWeightsAligned) {
  PreferenceGraph g = PreferenceGraph::FromWeightedEdges(
      3, 1, {{0, 0, 1.0}, {1, 0, 2.0}, {2, 0, 3.0}});
  auto users = g.UsersOf(0);
  auto weights = g.ItemWeights(0);
  ASSERT_EQ(users.size(), 3u);
  for (size_t k = 0; k < users.size(); ++k) {
    EXPECT_DOUBLE_EQ(weights[k], static_cast<double>(users[k] + 1));
  }
}

TEST(WeightedPreferenceGraphTest, WithEdgeReplacesWeight) {
  PreferenceGraph g =
      PreferenceGraph::FromWeightedEdges(1, 1, {{0, 0, 2.0}});
  PreferenceGraph replaced = g.WithEdge(0, 0, 4.5);
  EXPECT_EQ(replaced.num_edges(), 1);
  EXPECT_DOUBLE_EQ(replaced.Weight(0, 0), 4.5);
}

TEST(WeightedPreferenceGraphTest, WeightedEdgesRoundTrip) {
  std::vector<PreferenceEdge> edges = {{0, 1, 2.0}, {1, 0, 3.5}};
  PreferenceGraph g = PreferenceGraph::FromWeightedEdges(2, 2, edges);
  auto out = g.WeightedEdges();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (PreferenceEdge{0, 1, 2.0}));
  EXPECT_EQ(out[1], (PreferenceEdge{1, 0, 3.5}));
}

TEST(WeightedPreferenceGraphDeathTest, RejectsNonPositiveWeight) {
  EXPECT_DEATH(PreferenceGraph::FromWeightedEdges(1, 1, {{0, 0, 0.0}}),
               "weight");
}

// --------------------------------------------------- weighted utilities

class WeightedUtilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Kite graph; CN: sim(0,1)=1, sim(0,2)=1, sim(0,3)=2.
    social_ = SocialGraph::FromEdges(
        5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
    prefs_ = PreferenceGraph::FromWeightedEdges(
        5, 3, {{1, 0, 2.0}, {1, 1, 1.0}, {2, 1, 3.0}, {3, 2, 5.0}});
    workload_ = similarity::SimilarityWorkload::Compute(
        social_, similarity::CommonNeighbors());
    context_ = {&social_, &prefs_, &workload_};
  }

  SocialGraph social_;
  PreferenceGraph prefs_;
  similarity::SimilarityWorkload workload_;
  core::RecommenderContext context_;
};

TEST_F(WeightedUtilityTest, ExactRecommenderUsesWeights) {
  core::ExactRecommender rec(context_);
  auto row = rec.UtilityRow(0);
  // mu_0^0 = 1*2 = 2; mu_0^1 = 1*1 + 1*3 = 4; mu_0^2 = 2*5 = 10.
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0].second, 2.0);
  EXPECT_DOUBLE_EQ(row[1].second, 4.0);
  EXPECT_DOUBLE_EQ(row[2].second, 10.0);
}

TEST_F(WeightedUtilityTest, ClusterAveragesAreWeightedMeans) {
  community::Partition phi({0, 0, 0, 1, 1});
  core::ClusterPublisher publisher(
      context_, phi, {.epsilon = dp::kEpsilonInfinity, .seed = 1});
  auto averages = publisher.ComputeNoisyClusterAverages();
  // Cluster 0 = {0,1,2}, item 1: (0 + 1 + 3)/3.
  EXPECT_NEAR(averages[0 * 3 + 1], 4.0 / 3.0, 1e-12);
  // Cluster 1 = {3,4}, item 2: 5/2.
  EXPECT_NEAR(averages[1 * 3 + 2], 2.5, 1e-12);
}

TEST_F(WeightedUtilityTest, NouSensitivityScalesWithMaxWeight) {
  // NOU serves at Δ_A = workload.max_column_sum × meta.max_weight of the
  // model it was built into.
  const community::Partition whole = community::Partition::Whole(5);
  auto nou_sensitivity = [&](const PreferenceGraph& preferences) {
    artifact::ModelArtifactBuilder builder(&social_, &preferences);
    builder.SetPartition(&whole);
    builder.SetWorkload(&workload_);
    artifact::BuildOptions options;
    options.epsilon = 1.0;
    options.seed = 2;
    auto model = builder.Build(options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return model->workload.max_column_sum * model->meta.max_weight;
  };
  // Same workload with a binarized copy of the preferences.
  PreferenceGraph binary = PreferenceGraph::FromEdges(
      5, 3, {{1, 0}, {1, 1}, {2, 1}, {3, 2}});
  EXPECT_DOUBLE_EQ(nou_sensitivity(prefs_),
                   5.0 * nou_sensitivity(binary));
}

TEST_F(WeightedUtilityTest, ClusterNoiseScalesWithMaxWeight) {
  // With a weighted graph (w_max = 5) the noise on a cluster average must
  // be 5x the unweighted noise: verify via the released value's variance.
  community::Partition phi({0, 0, 0, 0, 0});
  core::ClusterPublisher publisher(context_, phi,
                                   {.epsilon = 1.0, .seed = 3});
  RunningStats stats;
  const double true_mean = 2.0 / 5.0;  // item 0: weight 2 over 5 users
  for (int t = 0; t < 4000; ++t) {
    stats.Add(publisher.ComputeNoisyClusterAverages()[0]);
  }
  // Lap(w_max/(|c| eps)) = Lap(1.0): variance 2.
  EXPECT_NEAR(stats.mean(), true_mean, 0.1);
  EXPECT_NEAR(stats.variance(), 2.0, 0.4);
}

// The DP guarantee must hold for weighted edges too: neighboring graphs
// differ by one edge of weight <= w_max.
TEST_F(WeightedUtilityTest, EmpiricalDpWithWeightedEdge) {
  community::Partition phi({0, 0, 0, 1, 1});
  PreferenceGraph neighbor = prefs_.WithEdge(0, 0, 5.0);
  // Register weight 5 in the base graph's w_max too (max_weight already 5
  // via user 3's edge).
  core::RecommenderContext ctx_nbr{&social_, &neighbor, &workload_};
  const double eps = 1.0;
  core::ClusterPublisher m1(context_, phi, {.epsilon = eps, .seed = 4});
  core::ClusterPublisher m2(ctx_nbr, phi, {.epsilon = eps, .seed = 5});
  Histogram h1(-8.0, 10.0, 18);
  Histogram h2(-8.0, 10.0, 18);
  for (int s = 0; s < 60000; ++s) {
    h1.Add(m1.ComputeNoisyClusterAverages()[0]);
    h2.Add(m2.ComputeNoisyClusterAverages()[0]);
  }
  const double bound = std::exp(eps) * 1.2;
  for (int b = 1; b + 1 < h1.num_bins(); ++b) {
    if (h1.bin_count(b) < 400 || h2.bin_count(b) < 400) continue;
    double ratio = h1.Fraction(b) / h2.Fraction(b);
    EXPECT_LT(ratio, bound) << "bin " << b;
    EXPECT_GT(ratio, 1.0 / bound) << "bin " << b;
  }
}

// -------------------------------------------------- weighted generator

TEST(WeightedGeneratorTest, RatingsInRangeAndSkewedHigh) {
  graph::PreferenceGeneratorOptions opt;
  opt.num_items = 300;
  opt.mean_prefs_per_user = 15.0;
  opt.max_rating = 5;
  opt.seed = 6;
  std::vector<int64_t> community(200, 0);
  PreferenceGraph g = graph::GeneratePreferences(community, opt);
  EXPECT_TRUE(g.is_weighted());
  EXPECT_LE(g.max_weight(), 5.0);
  RunningStats stats;
  for (const PreferenceEdge& e : g.WeightedEdges()) {
    EXPECT_GE(e.weight, 1.0);
    EXPECT_LE(e.weight, 5.0);
    EXPECT_DOUBLE_EQ(e.weight, std::floor(e.weight));  // integer stars
    stats.Add(e.weight);
  }
  // max-of-two-uniforms over {1..5} has mean 3.8: skewed above uniform 3.
  EXPECT_GT(stats.mean(), 3.2);
}

TEST(WeightedGeneratorTest, ZeroMaxRatingStaysUnweighted) {
  graph::PreferenceGeneratorOptions opt;
  opt.num_items = 100;
  opt.mean_prefs_per_user = 10.0;
  opt.max_rating = 0;
  opt.seed = 7;
  std::vector<int64_t> community(50, 0);
  PreferenceGraph g = graph::GeneratePreferences(community, opt);
  EXPECT_FALSE(g.is_weighted());
  EXPECT_DOUBLE_EQ(g.max_weight(), 1.0);
}

// ------------------------------------------------ Flixster weighted load

TEST(FlixsterWeightedTest, BinarizeFalseKeepsRatings) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "privrec_weighted_flixster";
  fs::create_directories(dir);
  {
    std::ofstream links(dir / "links.txt");
    links << "1\t2\n";
    std::ofstream ratings(dir / "ratings.txt");
    ratings << "1\t10\t4.5\n2\t10\t2.0\n2\t11\t1.0\n";
  }
  data::FlixsterOptions opt;
  opt.binarize = false;
  auto d = data::LoadFlixster(dir.string(), opt);
  fs::remove_all(dir);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->preferences.is_weighted());
  EXPECT_DOUBLE_EQ(d->preferences.max_weight(), 4.5);
  EXPECT_EQ(d->preferences.num_edges(), 2);  // the 1.0 is below 2
}

}  // namespace
}  // namespace privrec
