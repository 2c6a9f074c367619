// Tests for the structural graph metrics (clustering coefficients,
// sampled path lengths, neighborhood coverage) and the Louvain resolution
// parameter.

#include <gtest/gtest.h>

#include "community/louvain.h"
#include "community/modularity.h"
#include "community/simple_clusterings.h"
#include "graph/generators/erdos_renyi.h"
#include "graph/generators/planted_partition.h"
#include "graph/generators/watts_strogatz.h"
#include "graph/metrics.h"

namespace privrec::graph {
namespace {

TEST(ClusteringCoefficientTest, TriangleIsOne) {
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

TEST(ClusteringCoefficientTest, StarIsZero) {
  SocialGraph g = SocialGraph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(ClusteringCoefficientTest, PathHasNoTriples) {
  SocialGraph g = SocialGraph::FromEdges(2, {{0, 1}});
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(ClusteringCoefficientTest, TriangleWithPendant) {
  // Triangle 0-1-2 plus pendant 3 on node 0.
  SocialGraph g =
      SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
  // Triples: node0 C(3,2)=3, node1 C(2,2)=1, node2 1, node3 0 -> 5.
  // Closed triples: 3 (one triangle seen from 3 corners).
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 3.0 / 5.0);
}

TEST(ClusteringCoefficientTest, CommunityGraphsAreClusteredVsRandom) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 800;
  opt.num_communities = 8;
  opt.mean_degree = 12.0;
  opt.mixing = 0.1;
  opt.seed = 1;
  auto planted = GeneratePlantedPartition(opt);
  SocialGraph random =
      GenerateErdosRenyi(800, planted.graph.num_edges(), 2);
  EXPECT_GT(GlobalClusteringCoefficient(planted.graph),
            2.0 * GlobalClusteringCoefficient(random));
}

TEST(PathLengthTest, PathGraphExact) {
  // 0-1-2-3: distances from all sources (exact mode).
  SocialGraph g = SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  PathLengthStats stats = SampleShortestPaths(g, 100, 3);
  // Pairwise distances (ordered pairs): 1,2,3,1,1,2 (and symmetric) ->
  // mean = (2*(1+2+3+1+1+2))/12 = 10/6.
  EXPECT_NEAR(stats.average_distance, 10.0 / 6.0, 1e-12);
  EXPECT_EQ(stats.observed_diameter, 3);
  EXPECT_EQ(stats.sampled_sources, 4);
}

TEST(PathLengthTest, SmallWorldGraphHasShortPaths) {
  SocialGraph g = GenerateWattsStrogatz(1000, 3, 0.1, 4);
  PathLengthStats stats = SampleShortestPaths(g, 30, 5);
  // A rewired ring of 1000 nodes has average distance far below the
  // lattice's ~83.
  EXPECT_LT(stats.average_distance, 15.0);
  EXPECT_GT(stats.average_distance, 2.0);
}

TEST(NeighborhoodCoverageTest, ExplodesAfterTwoHops) {
  // The Section 2.2 observation on a community graph at social scale.
  PlantedPartitionOptions opt;
  opt.num_nodes = 1500;
  opt.num_communities = 12;
  opt.mean_degree = 14.0;
  opt.seed = 6;
  auto planted = GeneratePlantedPartition(opt);
  double one_hop = MeanNeighborhoodCoverage(planted.graph, 1, 50, 7);
  double two_hop = MeanNeighborhoodCoverage(planted.graph, 2, 50, 7);
  double three_hop = MeanNeighborhoodCoverage(planted.graph, 3, 50, 7);
  EXPECT_LT(one_hop, 0.05);
  EXPECT_GT(three_hop, 5.0 * two_hop * 0.2);  // monotone growth
  EXPECT_GT(three_hop, 0.3);  // most of the graph within 3 hops
  EXPECT_GT(two_hop, one_hop);
}

TEST(NeighborhoodCoverageTest, ZeroHopsIsZero) {
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}});
  EXPECT_DOUBLE_EQ(MeanNeighborhoodCoverage(g, 0, 10, 8), 0.0);
}

// ---------------------------------------------------- Louvain resolution

TEST(LouvainResolutionTest, GeneralizedModularityRecoversStandard) {
  SocialGraph g = GenerateErdosRenyi(100, 300, 9);
  community::Partition p = community::RandomClusters(100, 5, 10);
  EXPECT_DOUBLE_EQ(community::Modularity(g, p),
                   community::GeneralizedModularity(g, p, 1.0));
}

TEST(LouvainResolutionTest, HigherResolutionFindsMoreClusters) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 1200;
  opt.num_communities = 8;
  opt.sub_communities_per_community = 4;
  opt.sub_mixing = 0.35;
  opt.mean_degree = 14.0;
  opt.seed = 11;
  auto planted = GeneratePlantedPartition(opt);
  community::LouvainOptions base;
  base.restarts = 3;
  base.seed = 12;
  base.resolution = 1.0;
  auto coarse = community::RunLouvain(planted.graph, base);
  base.resolution = 4.0;
  auto fine = community::RunLouvain(planted.graph, base);
  EXPECT_GT(fine.partition.num_clusters(),
            coarse.partition.num_clusters());
}

TEST(LouvainResolutionTest, LowResolutionMergesClusters) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 800;
  opt.num_communities = 10;
  opt.mixing = 0.25;
  opt.seed = 13;
  auto planted = GeneratePlantedPartition(opt);
  community::LouvainOptions base;
  base.restarts = 3;
  base.seed = 14;
  base.resolution = 1.0;
  auto standard = community::RunLouvain(planted.graph, base);
  base.resolution = 0.1;
  auto merged = community::RunLouvain(planted.graph, base);
  EXPECT_LE(merged.partition.num_clusters(),
            standard.partition.num_clusters());
}

}  // namespace
}  // namespace privrec::graph
