// Unit tests for src/graph: SocialGraph, PreferenceGraph, components/BFS
// and the edge-list I/O round trip.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/components.h"
#include "graph/graph_io.h"
#include "graph/preference_graph.h"
#include "graph/social_graph.h"

namespace privrec::graph {
namespace {

SocialGraph Triangle() {
  return SocialGraph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
}

// ----------------------------------------------------------- SocialGraph

TEST(SocialGraphTest, BasicProperties) {
  SocialGraph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
  EXPECT_DOUBLE_EQ(g.DegreeStddev(), 0.0);
}

TEST(SocialGraphTest, DeduplicatesEdges) {
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(SocialGraphTest, NeighborsSorted) {
  SocialGraph g = SocialGraph::FromEdges(5, {{3, 0}, {3, 4}, {3, 1}, {3, 2}});
  auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(SocialGraphTest, EdgesReportsEachOnce) {
  SocialGraph g = Triangle();
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  for (auto [u, v] : edges) EXPECT_LT(u, v);
}

TEST(SocialGraphTest, IsolatedNodesHaveZeroDegree) {
  SocialGraph g = SocialGraph::FromEdges(4, {{0, 1}});
  EXPECT_EQ(g.Degree(2), 0);
  EXPECT_EQ(g.Degree(3), 0);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(SocialGraphTest, MaxDegree) {
  SocialGraph g =
      SocialGraph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}});
  EXPECT_EQ(g.MaxDegree(), 4);
}

TEST(SocialGraphDeathTest, RejectsSelfLoop) {
  EXPECT_DEATH(SocialGraph::FromEdges(2, {{1, 1}}), "self loop");
}

TEST(SocialGraphDeathTest, RejectsOutOfRangeEndpoint) {
  EXPECT_DEATH(SocialGraph::FromEdges(2, {{0, 5}}), "CHECK");
}

// ------------------------------------------------------- PreferenceGraph

TEST(PreferenceGraphTest, BasicProperties) {
  PreferenceGraph g =
      PreferenceGraph::FromEdges(2, 3, {{0, 0}, {0, 2}, {1, 2}});
  EXPECT_EQ(g.num_users(), 2);
  EXPECT_EQ(g.num_items(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.UserDegree(0), 2);
  EXPECT_EQ(g.ItemDegree(2), 2);
  EXPECT_DOUBLE_EQ(g.Weight(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.Weight(1, 0), 0.0);
}

TEST(PreferenceGraphTest, BothOrientationsConsistent) {
  PreferenceGraph g =
      PreferenceGraph::FromEdges(3, 3, {{0, 1}, {1, 1}, {2, 0}, {2, 1}});
  auto users = g.UsersOf(1);
  ASSERT_EQ(users.size(), 3u);
  EXPECT_TRUE(std::is_sorted(users.begin(), users.end()));
  auto items = g.ItemsOf(2);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], 0);
  EXPECT_EQ(items[1], 1);
}

TEST(PreferenceGraphTest, DeduplicatesEdges) {
  PreferenceGraph g = PreferenceGraph::FromEdges(1, 1, {{0, 0}, {0, 0}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(PreferenceGraphTest, WithEdgeAndWithoutEdgeAreNeighbors) {
  PreferenceGraph g = PreferenceGraph::FromEdges(2, 2, {{0, 0}});
  PreferenceGraph plus = g.WithEdge(1, 1);
  EXPECT_EQ(plus.num_edges(), 2);
  EXPECT_DOUBLE_EQ(plus.Weight(1, 1), 1.0);
  PreferenceGraph back = plus.WithoutEdge(1, 1);
  EXPECT_EQ(back.num_edges(), 1);
  EXPECT_DOUBLE_EQ(back.Weight(1, 1), 0.0);
  // No-ops.
  EXPECT_EQ(g.WithEdge(0, 0).num_edges(), 1);
  EXPECT_EQ(g.WithoutEdge(1, 1).num_edges(), 1);
}

TEST(PreferenceGraphTest, SummaryStatistics) {
  PreferenceGraph g =
      PreferenceGraph::FromEdges(2, 4, {{0, 0}, {0, 1}, {1, 2}});
  EXPECT_DOUBLE_EQ(g.AverageUserDegree(), 1.5);
  // Item degrees 1, 1, 1, 0: an average of 0.75 over the 4 items.
  int64_t item_degrees = 0;
  for (ItemId i = 0; i < g.num_items(); ++i) item_degrees += g.ItemDegree(i);
  EXPECT_EQ(item_degrees, 3);
  EXPECT_EQ(g.ItemDegree(3), 0);
  EXPECT_DOUBLE_EQ(g.Sparsity(), 1.0 - 3.0 / 8.0);
}

// ------------------------------------------------------------ Components

TEST(ComponentsTest, LabelsBySizeDescending) {
  // Component A: 0-1-2 (size 3); component B: 3-4 (size 2); isolated: 5.
  SocialGraph g = SocialGraph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
  ComponentInfo info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 3);
  EXPECT_EQ(info.sizes[0], 3);
  EXPECT_EQ(info.sizes[1], 2);
  EXPECT_EQ(info.sizes[2], 1);
  EXPECT_EQ(info.component_of[0], 0);
  EXPECT_EQ(info.component_of[1], 0);
  EXPECT_EQ(info.component_of[3], 1);
  EXPECT_EQ(info.component_of[5], 2);
}

TEST(ComponentsTest, SingleComponent) {
  ComponentInfo info = ConnectedComponents(Triangle());
  EXPECT_EQ(info.num_components, 1);
  EXPECT_EQ(info.sizes[0], 3);
}

TEST(BfsTest, DistancesWithDepthLimit) {
  // Path 0-1-2-3-4.
  SocialGraph g = SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto dist = BfsDistances(g, 0, 2);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], -1);  // beyond the cutoff
  EXPECT_EQ(dist[4], -1);
}

TEST(BfsTest, UnreachableNodes) {
  SocialGraph g = SocialGraph::FromEdges(4, {{0, 1}, {2, 3}});
  auto dist = BfsDistances(g, 0, 10);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
}

TEST(InducedSubgraphTest, KeepsInternalEdgesOnly) {
  SocialGraph g =
      SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  Subgraph sub = InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(sub.graph.num_nodes(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 0-1 and 1-2 survive
  ASSERT_EQ(sub.old_of_new.size(), 3u);
  EXPECT_EQ(sub.old_of_new[0], 0);
  EXPECT_EQ(sub.old_of_new[2], 2);
}

// -------------------------------------------------------------- Graph IO

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "privrec_graph_io";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, SocialGraphRoundTrip) {
  SocialGraph g = SocialGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(SaveSocialGraph(g, Path("social.tsv")).ok());
  auto loaded = LoadSocialGraph(Path("social.tsv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.num_nodes(), 4);
  EXPECT_EQ(loaded->graph.num_edges(), 3);
}

TEST_F(GraphIoTest, PreferenceGraphRoundTrip) {
  PreferenceGraph g =
      PreferenceGraph::FromEdges(2, 3, {{0, 0}, {0, 2}, {1, 1}});
  ASSERT_TRUE(SavePreferenceGraph(g, Path("prefs.tsv")).ok());
  auto loaded = LoadPreferenceGraph(Path("prefs.tsv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.num_users(), 2);
  EXPECT_EQ(loaded->graph.num_items(), 3);
  EXPECT_EQ(loaded->graph.num_edges(), 3);
}

TEST_F(GraphIoTest, RemapsSparseRawIds) {
  WriteFile("sparse.tsv", "# comment\n100 200\n200 999\n");
  auto loaded = LoadSocialGraph(Path("sparse.tsv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.num_nodes(), 3);
  EXPECT_EQ(loaded->graph.num_edges(), 2);
  EXPECT_EQ(loaded->original_id[0], 100);
  EXPECT_EQ(loaded->original_id[1], 200);
  EXPECT_EQ(loaded->original_id[2], 999);
}

TEST_F(GraphIoTest, WeightedPreferenceRoundTrip) {
  PreferenceGraph g = PreferenceGraph::FromWeightedEdges(
      2, 3, {{0, 0, 2.5}, {0, 2, 1.0}, {1, 1, 4.0}});
  ASSERT_TRUE(SavePreferenceGraph(g, Path("weighted.tsv")).ok());
  auto loaded = LoadPreferenceGraph(Path("weighted.tsv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->graph.is_weighted());
  EXPECT_DOUBLE_EQ(loaded->graph.max_weight(), 4.0);
  // Densified ids follow file order; map back through original ids.
  for (const PreferenceEdge& e : loaded->graph.WeightedEdges()) {
    NodeId orig_user = loaded->original_user_id[static_cast<size_t>(e.user)];
    ItemId orig_item = loaded->original_item_id[static_cast<size_t>(e.item)];
    EXPECT_DOUBLE_EQ(e.weight, g.Weight(orig_user, orig_item));
  }
}

TEST_F(GraphIoTest, PreferenceWeightColumnOptionalPerLine) {
  WriteFile("mixed.tsv", "0 5\n1 6 2.5\n");
  auto loaded = LoadPreferenceGraph(Path("mixed.tsv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->graph.is_weighted());
  EXPECT_DOUBLE_EQ(loaded->graph.Weight(0, 0), 1.0);  // default weight
  EXPECT_DOUBLE_EQ(loaded->graph.Weight(1, 1), 2.5);
}

TEST_F(GraphIoTest, NegativePreferenceWeightIsParseError) {
  WriteFile("neg.tsv", "0 5 -1.0\n");
  auto loaded = LoadPreferenceGraph(Path("neg.tsv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(GraphIoTest, MissingFileIsIoError) {
  auto loaded = LoadSocialGraph(Path("nope.tsv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, MalformedLineIsParseError) {
  WriteFile("bad.tsv", "1 2\nnot numbers\n");
  auto loaded = LoadSocialGraph(Path("bad.tsv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(GraphIoTest, SelfLoopIsParseError) {
  WriteFile("loop.tsv", "3 3\n");
  auto loaded = LoadSocialGraph(Path("loop.tsv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace privrec::graph
