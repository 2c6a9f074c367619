// Tests for the graph generators, including the planted-partition and
// preference generators that back the synthetic datasets.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "community/modularity.h"
#include "community/partition.h"
#include "graph/components.h"
#include "graph/generators/erdos_renyi.h"
#include "graph/generators/planted_partition.h"
#include "graph/generators/preference_generator.h"
#include "graph/generators/watts_strogatz.h"

namespace privrec::graph {
namespace {

// ------------------------------------------------------------ Erdős–Rényi

TEST(ErdosRenyiTest, ExactEdgeCount) {
  SocialGraph g = GenerateErdosRenyi(50, 100, 1);
  EXPECT_EQ(g.num_nodes(), 50);
  EXPECT_EQ(g.num_edges(), 100);
}

TEST(ErdosRenyiTest, DeterministicForSeed) {
  SocialGraph a = GenerateErdosRenyi(30, 60, 5);
  SocialGraph b = GenerateErdosRenyi(30, 60, 5);
  EXPECT_EQ(a.Edges(), b.Edges());
}

TEST(ErdosRenyiTest, CompleteGraph) {
  SocialGraph g = GenerateErdosRenyi(5, 10, 2);
  EXPECT_EQ(g.num_edges(), 10);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.Degree(u), 4);
}

// --------------------------------------------------------- Watts-Strogatz

TEST(WattsStrogatzTest, NoRewireIsRingLattice) {
  SocialGraph g = GenerateWattsStrogatz(20, 2, 0.0, 3);
  EXPECT_EQ(g.num_edges(), 40);
  for (NodeId u = 0; u < 20; ++u) EXPECT_EQ(g.Degree(u), 4);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(WattsStrogatzTest, RewiringPreservesEdgeBudgetApproximately) {
  SocialGraph g = GenerateWattsStrogatz(100, 3, 0.2, 5);
  // Rewiring can only drop edges in rare retry-exhaustion cases.
  EXPECT_GE(g.num_edges(), 290);
  EXPECT_LE(g.num_edges(), 300);
}

TEST(WattsStrogatzTest, FullRewireChangesStructure) {
  SocialGraph lattice = GenerateWattsStrogatz(200, 2, 0.0, 9);
  SocialGraph random = GenerateWattsStrogatz(200, 2, 1.0, 9);
  // Count surviving lattice edges in the rewired graph.
  int64_t kept = 0;
  for (auto [u, v] : lattice.Edges()) {
    if (random.HasEdge(u, v)) ++kept;
  }
  EXPECT_LT(kept, lattice.num_edges() / 2);
}

// ------------------------------------------------------ Planted partition

TEST(PlantedPartitionTest, SizesAndCommunityLabels) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 500;
  opt.num_communities = 8;
  opt.mean_degree = 10.0;
  opt.seed = 21;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  EXPECT_EQ(r.graph.num_nodes(), 500);
  EXPECT_EQ(r.num_communities, 8);
  EXPECT_EQ(r.community_of.size(), 500u);
  for (int64_t c : r.community_of) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 8);
  }
}

TEST(PlantedPartitionTest, MeanDegreeNearTarget) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 3000;
  opt.num_communities = 12;
  opt.mean_degree = 14.0;
  opt.seed = 22;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  EXPECT_NEAR(r.graph.AverageDegree(), 14.0, 2.0);
}

TEST(PlantedPartitionTest, GroundTruthHasHighModularity) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 1000;
  opt.num_communities = 10;
  opt.mean_degree = 12.0;
  opt.mixing = 0.1;
  opt.seed = 23;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  community::Partition truth(r.community_of);
  EXPECT_GT(community::Modularity(r.graph, truth), 0.6);
}

TEST(PlantedPartitionTest, MixingControlsCrossEdges) {
  auto cross_fraction = [](double mixing) {
    PlantedPartitionOptions opt;
    opt.num_nodes = 2000;
    opt.num_communities = 10;
    opt.mean_degree = 12.0;
    opt.mixing = mixing;
    opt.seed = 24;
    PlantedPartitionResult r = GeneratePlantedPartition(opt);
    int64_t cross = 0;
    auto edges = r.graph.Edges();
    for (auto [u, v] : edges) {
      if (r.community_of[static_cast<size_t>(u)] !=
          r.community_of[static_cast<size_t>(v)]) {
        ++cross;
      }
    }
    return static_cast<double>(cross) / static_cast<double>(edges.size());
  };
  double low = cross_fraction(0.05);
  double high = cross_fraction(0.4);
  EXPECT_LT(low, 0.15);
  EXPECT_GT(high, low + 0.1);
}

TEST(PlantedPartitionTest, SmallComponentsAppended) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 800;
  opt.num_communities = 6;
  opt.mean_degree = 10.0;
  opt.num_small_components = 10;
  opt.seed = 25;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  ComponentInfo info = ConnectedComponents(r.graph);
  // Main component + 10 tiny ones (the main part may itself split in rare
  // stub-matching corner cases, so allow >=).
  EXPECT_GE(info.num_components, 11);
  // Tiny components are in [2, 7] nodes.
  for (size_t c = 1; c < info.sizes.size(); ++c) {
    EXPECT_LE(info.sizes[c], 7);
  }
  // Extra communities were assigned to the tiny components.
  EXPECT_EQ(r.num_communities, 16);
}

TEST(PlantedPartitionTest, NoIsolatedNodes) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 600;
  opt.num_communities = 5;
  opt.mean_degree = 8.0;
  opt.seed = 26;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  for (NodeId u = 0; u < r.graph.num_nodes(); ++u) {
    EXPECT_GT(r.graph.Degree(u), 0) << "node " << u;
  }
}

TEST(PlantedPartitionTest, SubCommunitiesRefineCommunities) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 600;
  opt.num_communities = 6;
  opt.sub_communities_per_community = 4;
  opt.sub_mixing = 0.5;
  opt.seed = 28;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  EXPECT_EQ(r.num_sub_communities, 24);
  // Refinement: same sub => same community; each sub within one community.
  std::vector<int64_t> community_of_sub(
      static_cast<size_t>(r.num_sub_communities), -1);
  for (NodeId u = 0; u < 600; ++u) {
    int64_t sub = r.sub_community_of[static_cast<size_t>(u)];
    ASSERT_GE(sub, 0);
    ASSERT_LT(sub, r.num_sub_communities);
    int64_t c = r.community_of[static_cast<size_t>(u)];
    if (community_of_sub[static_cast<size_t>(sub)] == -1) {
      community_of_sub[static_cast<size_t>(sub)] = c;
    }
    EXPECT_EQ(community_of_sub[static_cast<size_t>(sub)], c)
        << "sub " << sub << " straddles communities";
  }
}

TEST(PlantedPartitionTest, SubStructureBiasesEdgesWithinSubs) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 1200;
  opt.num_communities = 4;
  opt.mean_degree = 14.0;
  opt.mixing = 0.1;
  opt.sub_communities_per_community = 5;
  opt.sub_mixing = 0.3;  // strong sub preference
  opt.seed = 29;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  // Among intra-community edges, the within-sub fraction must far exceed
  // the ~1/5 a sub-blind wiring would give.
  int64_t intra_comm = 0;
  int64_t intra_sub = 0;
  for (auto [u, v] : r.graph.Edges()) {
    if (r.community_of[static_cast<size_t>(u)] !=
        r.community_of[static_cast<size_t>(v)]) {
      continue;
    }
    ++intra_comm;
    if (r.sub_community_of[static_cast<size_t>(u)] ==
        r.sub_community_of[static_cast<size_t>(v)]) {
      ++intra_sub;
    }
  }
  ASSERT_GT(intra_comm, 0);
  EXPECT_GT(static_cast<double>(intra_sub) /
                static_cast<double>(intra_comm),
            0.45);
}

TEST(PlantedPartitionTest, SingleSubCommunityMatchesCoarseLabels) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 300;
  opt.num_communities = 5;
  opt.sub_communities_per_community = 1;
  opt.num_small_components = 2;
  opt.seed = 30;
  PlantedPartitionResult r = GeneratePlantedPartition(opt);
  EXPECT_EQ(r.sub_community_of, r.community_of);
  EXPECT_EQ(r.num_sub_communities, r.num_communities);
}

TEST(PlantedPartitionTest, DeterministicForSeed) {
  PlantedPartitionOptions opt;
  opt.num_nodes = 400;
  opt.num_communities = 4;
  opt.seed = 27;
  PlantedPartitionResult a = GeneratePlantedPartition(opt);
  PlantedPartitionResult b = GeneratePlantedPartition(opt);
  EXPECT_EQ(a.graph.Edges(), b.graph.Edges());
  EXPECT_EQ(a.community_of, b.community_of);
}

// ------------------------------------------------- Preference generation

std::vector<int64_t> TwoCommunities(int64_t n) {
  std::vector<int64_t> community(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    community[static_cast<size_t>(u)] = u < n / 2 ? 0 : 1;
  }
  return community;
}

TEST(PreferenceGeneratorTest, PerUserCountsNearMean) {
  PreferenceGeneratorOptions opt;
  opt.num_items = 500;
  opt.mean_prefs_per_user = 20.0;
  opt.stddev_prefs_per_user = 3.0;
  opt.seed = 31;
  PreferenceGraph g = GeneratePreferences(TwoCommunities(400), opt);
  EXPECT_EQ(g.num_users(), 400);
  EXPECT_NEAR(g.AverageUserDegree(), 20.0, 2.0);
  for (NodeId u = 0; u < g.num_users(); ++u) {
    EXPECT_GE(g.UserDegree(u), 1);
  }
}

TEST(PreferenceGeneratorTest, HomophilyCreatesCommunityOverlap) {
  // With high homophily, two users in the same community should share far
  // more items than users in different communities.
  PreferenceGeneratorOptions opt;
  opt.num_items = 2000;
  opt.mean_prefs_per_user = 30.0;
  opt.homophily = 0.95;
  opt.seed = 32;
  std::vector<int64_t> community = TwoCommunities(200);
  PreferenceGraph g = GeneratePreferences(community, opt);

  auto overlap = [&](NodeId a, NodeId b) {
    auto ia = g.ItemsOf(a);
    auto ib = g.ItemsOf(b);
    std::vector<ItemId> shared;
    std::set_intersection(ia.begin(), ia.end(), ib.begin(), ib.end(),
                          std::back_inserter(shared));
    return static_cast<int64_t>(shared.size());
  };
  int64_t same = 0;
  int64_t diff = 0;
  for (NodeId u = 0; u < 50; ++u) {
    same += overlap(u, u + 1);         // both in community 0
    diff += overlap(u, u + 100);       // communities 0 vs 1
  }
  EXPECT_GT(same, 2 * diff);
}

TEST(PreferenceGeneratorTest, ZeroHomophilyIsCommunityAgnostic) {
  PreferenceGeneratorOptions opt;
  opt.num_items = 2000;
  opt.mean_prefs_per_user = 30.0;
  opt.homophily = 0.0;
  opt.seed = 33;
  std::vector<int64_t> community = TwoCommunities(200);
  PreferenceGraph g = GeneratePreferences(community, opt);
  // Global popularity: item 0 must be the most preferred item overall.
  int64_t best_degree = 0;
  for (ItemId i = 0; i < g.num_items(); ++i) {
    best_degree = std::max(best_degree, g.ItemDegree(i));
  }
  EXPECT_EQ(g.ItemDegree(0), best_degree);
}

TEST(PreferenceGeneratorTest, DeterministicForSeed) {
  PreferenceGeneratorOptions opt;
  opt.num_items = 100;
  opt.mean_prefs_per_user = 10.0;
  opt.seed = 34;
  std::vector<int64_t> community = TwoCommunities(60);
  PreferenceGraph a = GeneratePreferences(community, opt);
  PreferenceGraph b = GeneratePreferences(community, opt);
  EXPECT_EQ(a.Edges(), b.Edges());
}

}  // namespace
}  // namespace privrec::graph
