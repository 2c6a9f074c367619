// Tests for the community module: Partition invariants, modularity
// hand-checks, Louvain recovery of planted structure, label propagation
// and the degenerate clusterings.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/modularity.h"
#include "community/partition.h"
#include "community/partition_io.h"
#include "community/quality.h"
#include "community/simple_clusterings.h"
#include "graph/generators/erdos_renyi.h"
#include "graph/generators/planted_partition.h"

namespace privrec::community {
namespace {

using graph::NodeId;
using graph::SocialGraph;

// Two triangles joined by one bridge edge — the canonical two-community
// graph.
SocialGraph TwoTriangles() {
  return SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
}

// -------------------------------------------------------------- Partition

TEST(PartitionTest, CompactsLabels) {
  Partition p({7, 7, 42, 7, 42});
  EXPECT_EQ(p.num_nodes(), 5);
  EXPECT_EQ(p.num_clusters(), 2);
  EXPECT_EQ(p.ClusterOf(0), p.ClusterOf(1));
  EXPECT_EQ(p.ClusterOf(2), p.ClusterOf(4));
  EXPECT_NE(p.ClusterOf(0), p.ClusterOf(2));
  EXPECT_EQ(p.ClusterSize(p.ClusterOf(0)), 3);
}

TEST(PartitionTest, SingletonsAndWhole) {
  Partition s = Partition::Singletons(4);
  EXPECT_EQ(s.num_clusters(), 4);
  EXPECT_EQ(s.LargestClusterSize(), 1);
  Partition w = Partition::Whole(4);
  EXPECT_EQ(w.num_clusters(), 1);
  EXPECT_EQ(w.LargestClusterSize(), 4);
}

TEST(PartitionTest, SizesSumToNodeCount) {
  Partition p({0, 1, 0, 2, 1, 0});
  int64_t total = 0;
  for (int64_t s : p.sizes()) total += s;
  EXPECT_EQ(total, p.num_nodes());
}

TEST(PartitionTest, MembersRoundTrip) {
  Partition p({0, 1, 0, 1});
  auto members = p.Members();
  ASSERT_EQ(members.size(), 2u);
  for (int64_t c = 0; c < 2; ++c) {
    for (NodeId u : members[static_cast<size_t>(c)]) {
      EXPECT_EQ(p.ClusterOf(u), c);
    }
  }
}

TEST(PartitionTest, SamePartitionUpToRelabeling) {
  Partition a({0, 0, 1, 1});
  Partition b({5, 5, 2, 2});
  Partition c({0, 1, 0, 1});
  EXPECT_TRUE(a.SamePartitionAs(b));
  EXPECT_FALSE(a.SamePartitionAs(c));
}

TEST(PartitionTest, SizeStatistics) {
  Partition p({0, 0, 0, 1});
  EXPECT_DOUBLE_EQ(p.AverageClusterSize(), 2.0);
  EXPECT_DOUBLE_EQ(p.ClusterSizeStddev(), 1.0);
}

TEST(PartitionDeathTest, RejectsNegativeLabel) {
  EXPECT_DEATH(Partition({0, -1}), "negative");
}

// ------------------------------------------------------------- Modularity

TEST(ModularityTest, TwoTrianglesGroundTruth) {
  SocialGraph g = TwoTriangles();
  // Q = sum_c [e_c/m - (d_c/2m)^2]; m = 7, each community: e_c = 3,
  // d_c = 7 -> Q = 2*(3/7 - (7/14)^2) = 6/7 - 1/2.
  Partition truth({0, 0, 0, 1, 1, 1});
  EXPECT_NEAR(Modularity(g, truth), 6.0 / 7.0 - 0.5, 1e-12);
}

TEST(ModularityTest, WholePartitionScoresZero) {
  SocialGraph g = TwoTriangles();
  EXPECT_NEAR(Modularity(g, Partition::Whole(6)), 0.0, 1e-12);
}

TEST(ModularityTest, SingletonsAreNegative) {
  SocialGraph g = TwoTriangles();
  EXPECT_LT(Modularity(g, Partition::Singletons(6)), 0.0);
}

TEST(ModularityTest, EmptyGraphIsZero) {
  SocialGraph g = SocialGraph::FromEdges(3, {});
  EXPECT_DOUBLE_EQ(Modularity(g, Partition::Whole(3)), 0.0);
}

TEST(ModularityTest, BoundedAboveByOne) {
  graph::PlantedPartitionOptions opt;
  opt.num_nodes = 300;
  opt.num_communities = 5;
  opt.seed = 71;
  auto planted = graph::GeneratePlantedPartition(opt);
  Partition truth(planted.community_of);
  double q = Modularity(planted.graph, truth);
  EXPECT_GT(q, -0.5);
  EXPECT_LT(q, 1.0);
}

// ---------------------------------------------------------------- Louvain

TEST(LouvainTest, RecoversTwoTriangles) {
  SocialGraph g = TwoTriangles();
  LouvainOptions opt;
  opt.restarts = 3;
  opt.seed = 81;
  LouvainResult r = RunLouvain(g, opt);
  Partition truth({0, 0, 0, 1, 1, 1});
  EXPECT_TRUE(r.partition.SamePartitionAs(truth));
  EXPECT_NEAR(r.modularity, 6.0 / 7.0 - 0.5, 1e-12);
}

TEST(LouvainTest, RecoversPlantedCommunities) {
  graph::PlantedPartitionOptions opt;
  opt.num_nodes = 1200;
  opt.num_communities = 8;
  opt.mean_degree = 14.0;
  opt.mixing = 0.1;
  opt.seed = 82;
  auto planted = graph::GeneratePlantedPartition(opt);
  LouvainOptions lopt;
  lopt.restarts = 5;
  lopt.seed = 83;
  LouvainResult r = RunLouvain(planted.graph, lopt);
  // Louvain must be at least as good as the ground truth (it maximizes Q).
  double truth_q =
      Modularity(planted.graph, Partition(planted.community_of));
  EXPECT_GE(r.modularity, truth_q - 0.02);
  // And find roughly the planted number of communities.
  EXPECT_GE(r.partition.num_clusters(), 5);
  EXPECT_LE(r.partition.num_clusters(), 16);
}

TEST(LouvainTest, ModularityMatchesPartition) {
  SocialGraph g = graph::GenerateErdosRenyi(120, 400, 84);
  LouvainResult r = RunLouvain(g, {.restarts = 2, .seed = 85});
  EXPECT_NEAR(r.modularity, Modularity(g, r.partition), 1e-12);
}

TEST(LouvainTest, SeparateComponentsStaySeparate) {
  // Two disjoint triangles: no modularity gain from merging across them.
  SocialGraph g = SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  LouvainResult r = RunLouvain(g, {.restarts = 2, .seed = 86});
  EXPECT_EQ(r.partition.num_clusters(), 2);
  EXPECT_NE(r.partition.ClusterOf(0), r.partition.ClusterOf(3));
}

TEST(LouvainTest, DeterministicForSeed) {
  SocialGraph g = graph::GenerateErdosRenyi(100, 300, 87);
  LouvainOptions opt;
  opt.restarts = 3;
  opt.seed = 88;
  LouvainResult a = RunLouvain(g, opt);
  LouvainResult b = RunLouvain(g, opt);
  EXPECT_EQ(a.partition.cluster_of(), b.partition.cluster_of());
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

TEST(LouvainTest, RefinementNeverHurtsModularity) {
  graph::PlantedPartitionOptions opt;
  opt.num_nodes = 800;
  opt.num_communities = 6;
  opt.mixing = 0.25;  // noisy enough that refinement has room to act
  opt.seed = 89;
  auto planted = graph::GeneratePlantedPartition(opt);
  LouvainOptions base;
  base.restarts = 3;
  base.seed = 90;
  base.refine = false;
  double q_plain = RunLouvain(planted.graph, base).modularity;
  base.refine = true;
  double q_refined = RunLouvain(planted.graph, base).modularity;
  EXPECT_GE(q_refined, q_plain - 1e-9);
}

TEST(LouvainTest, MoreRestartsNeverWorse) {
  SocialGraph g = graph::GenerateErdosRenyi(150, 500, 91);
  LouvainOptions one;
  one.restarts = 1;
  one.seed = 92;
  LouvainOptions ten;
  ten.restarts = 10;
  ten.seed = 92;
  // Restart r of the 10-run uses Fork(r), identical to the single run's
  // Fork(0): the best-of-10 can only improve on run 0.
  EXPECT_GE(RunLouvain(g, ten).modularity,
            RunLouvain(g, one).modularity - 1e-12);
}

TEST(LouvainTest, EmptyGraphYieldsSingletons) {
  SocialGraph g = SocialGraph::FromEdges(4, {});
  LouvainResult r = RunLouvain(g, {.restarts = 1, .seed = 93});
  EXPECT_EQ(r.partition.num_clusters(), 4);
}

// ------------------------------------------------------ Label propagation

TEST(LabelPropagationTest, FindsTwoTriangles) {
  SocialGraph g = TwoTriangles();
  Partition p = RunLabelPropagation(g, {.max_iterations = 50, .seed = 94});
  // Label propagation may merge across the bridge occasionally, but the
  // two-triangle structure is stable: expect 1 or 2 clusters, and if 2,
  // the triangles must be intact.
  ASSERT_LE(p.num_clusters(), 2);
  if (p.num_clusters() == 2) {
    EXPECT_EQ(p.ClusterOf(0), p.ClusterOf(1));
    EXPECT_EQ(p.ClusterOf(3), p.ClusterOf(5));
  }
}

TEST(LabelPropagationTest, CoversAllNodes) {
  SocialGraph g = graph::GenerateErdosRenyi(100, 250, 95);
  Partition p = RunLabelPropagation(g, {.seed = 96});
  EXPECT_EQ(p.num_nodes(), 100);
  int64_t total = 0;
  for (int64_t s : p.sizes()) total += s;
  EXPECT_EQ(total, 100);
}

// ----------------------------------------------------------- Partition IO

TEST(PartitionIoTest, RoundTrip) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_partition.tsv";
  Partition original({0, 1, 0, 2, 1, 0});
  ASSERT_TRUE(SavePartition(original, path.string()).ok());
  auto loaded = LoadPartition(path.string(), original.num_nodes());
  fs::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->SamePartitionAs(original));
}

TEST(PartitionIoTest, LouvainResultRoundTrip) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_partition2.tsv";
  SocialGraph g = graph::GenerateErdosRenyi(200, 600, 99);
  LouvainResult r = RunLouvain(g, {.restarts = 2, .seed = 100});
  ASSERT_TRUE(SavePartition(r.partition, path.string()).ok());
  auto loaded = LoadPartition(path.string(), g.num_nodes());
  fs::remove(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->SamePartitionAs(r.partition));
  EXPECT_DOUBLE_EQ(Modularity(g, *loaded), r.modularity);
}

TEST(PartitionIoTest, RejectsMissingNode) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_partition3.tsv";
  {
    std::ofstream out(path);
    out << "0\t0\n2\t1\n";  // node 1 missing
  }
  auto loaded = LoadPartition(path.string(), 3);
  fs::remove(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(PartitionIoTest, RejectsDuplicateNode) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_partition4.tsv";
  {
    std::ofstream out(path);
    out << "0\t0\n0\t1\n";
  }
  auto loaded = LoadPartition(path.string(), 2);
  fs::remove(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

// ------------------------------------------------------------- Quality

TEST(PartitionQualityTest, PerfectSeparationTwoTriangles) {
  SocialGraph g = SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  Partition truth({0, 0, 0, 1, 1, 1});
  PartitionQuality q = EvaluatePartitionQuality(g, truth);
  EXPECT_DOUBLE_EQ(q.coverage, 1.0);
  EXPECT_DOUBLE_EQ(q.mean_conductance, 0.0);
  EXPECT_DOUBLE_EQ(q.max_conductance, 0.0);
}

TEST(PartitionQualityTest, BridgedTrianglesConductance) {
  SocialGraph g = TwoTriangles();  // bridge 2-3 added
  Partition truth({0, 0, 0, 1, 1, 1});
  // Each cluster: cut = 1, volume = 7, total volume = 14 -> 1/7, so the
  // mean and the max are both 1/7.
  PartitionQuality q = EvaluatePartitionQuality(g, truth);
  EXPECT_NEAR(q.coverage, 6.0 / 7.0, 1e-12);
  EXPECT_NEAR(q.mean_conductance, 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(q.max_conductance, 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(q.modularity, Modularity(g, truth), 1e-12);
}

TEST(PartitionQualityTest, WholePartitionCoversEverything) {
  SocialGraph g = graph::GenerateErdosRenyi(60, 150, 101);
  PartitionQuality q =
      EvaluatePartitionQuality(g, Partition::Whole(60));
  EXPECT_DOUBLE_EQ(q.coverage, 1.0);
  EXPECT_DOUBLE_EQ(q.mean_conductance, 0.0);
}

TEST(PartitionQualityTest, RandomClustersHaveHighConductance) {
  graph::PlantedPartitionOptions opt;
  opt.num_nodes = 400;
  opt.num_communities = 5;
  opt.mixing = 0.1;
  opt.seed = 102;
  auto planted = graph::GeneratePlantedPartition(opt);
  PartitionQuality truth = EvaluatePartitionQuality(
      planted.graph, Partition(planted.community_of));
  PartitionQuality random = EvaluatePartitionQuality(
      planted.graph, RandomClusters(400, 5, 103));
  EXPECT_LT(truth.mean_conductance, 0.5 * random.mean_conductance);
  EXPECT_GT(truth.coverage, random.coverage);
}

TEST(PartitionQualityTest, EmptyGraphIsNeutral) {
  SocialGraph g = SocialGraph::FromEdges(4, {});
  PartitionQuality q =
      EvaluatePartitionQuality(g, Partition::Singletons(4));
  EXPECT_DOUBLE_EQ(q.coverage, 0.0);
  EXPECT_DOUBLE_EQ(q.mean_conductance, 0.0);
}

// ------------------------------------------------------ Simple clusterings

TEST(RandomClustersTest, EqualSizes) {
  Partition p = RandomClusters(100, 10, 97);
  EXPECT_EQ(p.num_clusters(), 10);
  for (int64_t c = 0; c < 10; ++c) EXPECT_EQ(p.ClusterSize(c), 10);
}

TEST(RandomClustersTest, UnevenDivision) {
  Partition p = RandomClusters(10, 3, 98);
  EXPECT_EQ(p.num_clusters(), 3);
  std::multiset<int64_t> sizes(p.sizes().begin(), p.sizes().end());
  EXPECT_EQ(sizes, (std::multiset<int64_t>{3, 3, 4}));
}

TEST(RandomClustersTest, DifferentSeedsDiffer) {
  Partition a = RandomClusters(60, 6, 1);
  Partition b = RandomClusters(60, 6, 2);
  EXPECT_FALSE(a.SamePartitionAs(b));
}

}  // namespace
}  // namespace privrec::community
