// Tests for the four social similarity measures (Section 2.2) on
// hand-computed graphs, plus parameterized property suites (symmetry,
// non-negativity) and the SimilarityWorkload.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "graph/generators/erdos_renyi.h"
#include "graph/generators/planted_partition.h"
#include "similarity/adamic_adar.h"
#include "similarity/common_neighbors.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"
#include "similarity/workload.h"
#include "similarity/workload_io.h"

namespace privrec::similarity {
namespace {

using graph::NodeId;
using graph::SocialGraph;

double Score(const std::vector<SimilarityEntry>& row, NodeId v) {
  for (const SimilarityEntry& e : row) {
    if (e.user == v) return e.score;
  }
  return 0.0;
}

// The "kite": 0-1, 0-2, 1-2, 1-3, 2-3, 3-4.
SocialGraph Kite() {
  return SocialGraph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
}

// ------------------------------------------------------ Common Neighbors

TEST(CommonNeighborsTest, HandComputedKite) {
  SocialGraph g = Kite();
  CommonNeighbors cn;
  DenseScratch scratch;
  auto row0 = cn.Row(g, 0, &scratch);
  // Γ(0) = {1, 2}. Common with 1: Γ(1) = {0,2,3} -> {2}: 1.
  EXPECT_DOUBLE_EQ(Score(row0, 1), 1.0);
  // Common with 2: {1}: 1.
  EXPECT_DOUBLE_EQ(Score(row0, 2), 1.0);
  // Common with 3: Γ(3) = {1,2,4} -> {1,2}: 2.
  EXPECT_DOUBLE_EQ(Score(row0, 3), 2.0);
  // Common with 4: Γ(4) = {3}: none.
  EXPECT_DOUBLE_EQ(Score(row0, 4), 0.0);
  // Self excluded.
  EXPECT_DOUBLE_EQ(Score(row0, 0), 0.0);
}

TEST(CommonNeighborsTest, IsolatedNodeHasEmptyRow) {
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}});
  CommonNeighbors cn;
  DenseScratch scratch;
  EXPECT_TRUE(cn.Row(g, 2, &scratch).empty());
}

TEST(CommonNeighborsTest, DirectNeighborsWithoutCommonFriendScoreZero) {
  SocialGraph g = SocialGraph::FromEdges(2, {{0, 1}});
  CommonNeighbors cn;
  DenseScratch scratch;
  EXPECT_TRUE(cn.Row(g, 0, &scratch).empty());
}

// ---------------------------------------------------------- Adamic/Adar

TEST(AdamicAdarTest, HandComputedKite) {
  SocialGraph g = Kite();
  AdamicAdar aa;
  DenseScratch scratch;
  auto row0 = aa.Row(g, 0, &scratch);
  // Common neighbor of 0 and 3: nodes 1 and 2, each of degree 3:
  // 2 / log(3).
  EXPECT_NEAR(Score(row0, 3), 2.0 / std::log(3.0), 1e-12);
  // Common neighbor of 0 and 1: node 2 of degree 3.
  EXPECT_NEAR(Score(row0, 1), 1.0 / std::log(3.0), 1e-12);
}

TEST(AdamicAdarTest, DegreeTwoNeighborUsesLogTwo) {
  // Path 0-1-2: node 1 has degree 2 and is the common neighbor of 0 and 2.
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}});
  AdamicAdar aa;
  DenseScratch scratch;
  auto row0 = aa.Row(g, 0, &scratch);
  EXPECT_NEAR(Score(row0, 2), 1.0 / std::log(2.0), 1e-12);
}

// ------------------------------------------------------- Graph Distance

TEST(GraphDistanceTest, InverseDistanceWithCutoff) {
  // Path 0-1-2-3-4.
  SocialGraph g = SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  GraphDistance gd(/*max_distance=*/2);
  DenseScratch scratch;
  auto row0 = gd.Row(g, 0, &scratch);
  EXPECT_DOUBLE_EQ(Score(row0, 1), 1.0);
  EXPECT_DOUBLE_EQ(Score(row0, 2), 0.5);
  EXPECT_DOUBLE_EQ(Score(row0, 3), 0.0);  // beyond the cutoff
  EXPECT_DOUBLE_EQ(Score(row0, 0), 0.0);  // self
}

TEST(GraphDistanceTest, CutoffThreeReachesFurther) {
  SocialGraph g = SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  GraphDistance gd(3);
  DenseScratch scratch;
  auto row0 = gd.Row(g, 0, &scratch);
  EXPECT_NEAR(Score(row0, 3), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Score(row0, 4), 0.0);
}

TEST(GraphDistanceTest, ShortestPathWinsOverLonger) {
  // Triangle plus pendant: distance from 0 to 2 is 1 even though a 2-path
  // exists.
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  GraphDistance gd(2);
  DenseScratch scratch;
  EXPECT_DOUBLE_EQ(Score(gd.Row(g, 0, &scratch), 2), 1.0);
}

// ----------------------------------------------------------------- Katz

TEST(KatzTest, HandComputedTriangle) {
  SocialGraph g = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  const double a = 0.1;
  Katz kz(/*max_length=*/3, /*damping=*/a);
  DenseScratch scratch;
  auto row0 = kz.Row(g, 0, &scratch);
  // Walks 0->1: length1: 1; length2: 0-2-1: 1; length3: 0-1-0-1, 0-1-2-1,
  // 0-2-0-1: 3.
  double expected = a * 1 + a * a * 1 + a * a * a * 3;
  EXPECT_NEAR(Score(row0, 1), expected, 1e-12);
}

TEST(KatzTest, PathLengthOneOnly) {
  SocialGraph g = SocialGraph::FromEdges(2, {{0, 1}});
  Katz kz(1, 0.05);
  DenseScratch scratch;
  auto row0 = kz.Row(g, 0, &scratch);
  EXPECT_NEAR(Score(row0, 1), 0.05, 1e-12);
}

TEST(KatzTest, DampingScalesScores) {
  SocialGraph g = graph::GenerateErdosRenyi(50, 120, 41);
  DenseScratch scratch;
  Katz weak(3, 0.005);
  Katz strong(3, 0.05);
  auto row_weak = weak.Row(g, 0, &scratch);
  auto row_strong = strong.Row(g, 0, &scratch);
  double sum_weak = 0.0;
  double sum_strong = 0.0;
  for (const auto& e : row_weak) sum_weak += e.score;
  for (const auto& e : row_strong) sum_strong += e.score;
  EXPECT_GT(sum_strong, sum_weak);
}

// --------------------------------------------- Parameterized properties

std::unique_ptr<SimilarityMeasure> MakeMeasure(const std::string& name) {
  if (name == "CN") return std::make_unique<CommonNeighbors>();
  if (name == "AA") return std::make_unique<AdamicAdar>();
  if (name == "GD") return std::make_unique<GraphDistance>(2);
  return std::make_unique<Katz>(3, 0.05);
}

class MeasurePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MeasurePropertyTest, RowsAreSortedPositiveAndExcludeSelf) {
  SocialGraph g = graph::GenerateErdosRenyi(80, 240, 51);
  auto measure = MakeMeasure(GetParam());
  DenseScratch scratch;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto row = measure->Row(g, u, &scratch);
    for (size_t k = 0; k < row.size(); ++k) {
      EXPECT_GT(row[k].score, 0.0);
      EXPECT_NE(row[k].user, u);
      if (k > 0) {
        EXPECT_LT(row[k - 1].user, row[k].user);
      }
    }
  }
}

TEST_P(MeasurePropertyTest, IsSymmetric) {
  // All four paper measures are symmetric on undirected graphs — a
  // property the GS adaptation and the per-item evaluation rely on.
  SocialGraph g = graph::GenerateErdosRenyi(60, 150, 52);
  auto measure = MakeMeasure(GetParam());
  DenseScratch scratch;
  std::map<std::pair<NodeId, NodeId>, double> scores;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& e : measure->Row(g, u, &scratch)) {
      scores[{u, e.user}] = e.score;
    }
  }
  for (const auto& [key, score] : scores) {
    auto it = scores.find({key.second, key.first});
    ASSERT_NE(it, scores.end())
        << "asymmetric support " << key.first << "," << key.second;
    EXPECT_NEAR(it->second, score, 1e-9);
  }
}

TEST_P(MeasurePropertyTest, ScratchReuseMatchesFreshScratch) {
  SocialGraph g = graph::GenerateErdosRenyi(40, 100, 53);
  auto measure = MakeMeasure(GetParam());
  DenseScratch reused;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    DenseScratch fresh;
    EXPECT_EQ(measure->Row(g, u, &reused), measure->Row(g, u, &fresh));
  }
}

TEST_P(MeasurePropertyTest, DisconnectedUsersNeverSimilar) {
  // Two separate triangles.
  SocialGraph g = SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  auto measure = MakeMeasure(GetParam());
  DenseScratch scratch;
  for (NodeId u = 0; u < 3; ++u) {
    for (const auto& e : measure->Row(g, u, &scratch)) {
      EXPECT_LT(e.user, 3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasurePropertyTest,
                         ::testing::Values("CN", "AA", "GD", "KZ"),
                         [](const auto& info) { return info.param; });

// -------------------------------------------------------------- Workload

TEST(WorkloadTest, MatchesDirectRows) {
  SocialGraph g = graph::GenerateErdosRenyi(50, 120, 61);
  CommonNeighbors cn;
  SimilarityWorkload w = SimilarityWorkload::Compute(g, cn);
  EXPECT_EQ(w.num_users(), 50);
  EXPECT_EQ(w.measure_name(), "CN");
  DenseScratch scratch;
  for (NodeId u = 0; u < 50; ++u) {
    auto direct = cn.Row(g, u, &scratch);
    auto stored = w.Row(u);
    ASSERT_EQ(stored.size(), direct.size());
    for (size_t k = 0; k < direct.size(); ++k) {
      EXPECT_EQ(stored[k], direct[k]);
    }
  }
}

TEST(WorkloadTest, MaxColumnSumIsMaxRowSumForSymmetricMeasures) {
  SocialGraph g = graph::GenerateErdosRenyi(60, 140, 62);
  SimilarityWorkload w =
      SimilarityWorkload::Compute(g, AdamicAdar());
  double max_row_sum = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_row_sum = std::max(max_row_sum, w.RowSum(u));
  }
  EXPECT_NEAR(w.MaxColumnSum(), max_row_sum, 1e-9);
}

TEST(WorkloadTest, MaxEntryIsGlobalMaximum) {
  SocialGraph g = graph::GenerateErdosRenyi(40, 90, 63);
  SimilarityWorkload w = SimilarityWorkload::Compute(g, CommonNeighbors());
  double max_entry = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& e : w.Row(u)) max_entry = std::max(max_entry, e.score);
  }
  EXPECT_DOUBLE_EQ(w.MaxEntry(), max_entry);
}

TEST(WorkloadTest, ComputeForUsersStoresSubsetKeepsGlobalStats) {
  SocialGraph g = graph::GenerateErdosRenyi(50, 120, 64);
  CommonNeighbors cn;
  SimilarityWorkload full = SimilarityWorkload::Compute(g, cn);
  std::vector<NodeId> subset = {3, 7, 11};
  SimilarityWorkload partial =
      SimilarityWorkload::ComputeForUsers(g, cn, subset);
  // Stored rows match for the subset.
  for (NodeId u : subset) {
    auto a = full.Row(u);
    auto b = partial.Row(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
  // Unstored rows are empty; global statistics are identical.
  EXPECT_TRUE(partial.Row(0).empty());
  EXPECT_DOUBLE_EQ(partial.MaxColumnSum(), full.MaxColumnSum());
  EXPECT_DOUBLE_EQ(partial.MaxEntry(), full.MaxEntry());
}

TEST(WorkloadIoTest, RoundTripPreservesRowsAndStats) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_workload.tsv";
  SocialGraph g = graph::GenerateErdosRenyi(60, 150, 65);
  SimilarityWorkload original =
      SimilarityWorkload::Compute(g, AdamicAdar());
  ASSERT_TRUE(SaveWorkload(original, path.string()).ok());
  auto loaded = LoadWorkload(path.string(), g.num_nodes());
  fs::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users(), original.num_users());
  EXPECT_EQ(loaded->measure_name(), original.measure_name());
  EXPECT_DOUBLE_EQ(loaded->MaxColumnSum(), original.MaxColumnSum());
  EXPECT_DOUBLE_EQ(loaded->MaxEntry(), original.MaxEntry());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto a = original.Row(u);
    auto b = loaded->Row(u);
    ASSERT_EQ(a.size(), b.size()) << "user " << u;
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST(WorkloadIoTest, HandlesEmptyRowsAtBothEnds) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_workload2.tsv";
  // Node 0 and node 3 are isolated: first and last rows are empty.
  SocialGraph g = SocialGraph::FromEdges(4, {{1, 2}});
  SimilarityWorkload original =
      SimilarityWorkload::Compute(g, CommonNeighbors());
  ASSERT_TRUE(SaveWorkload(original, path.string()).ok());
  auto loaded = LoadWorkload(path.string(), g.num_nodes());
  fs::remove(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_users(), 4);
  EXPECT_TRUE(loaded->Row(0).empty());
  EXPECT_TRUE(loaded->Row(3).empty());
}

TEST(WorkloadIoTest, MalformedHeaderFails) {
  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() / "privrec_workload3.tsv";
  {
    std::ofstream out(path);
    out << "0\t1\t0.5\n";  // no header
  }
  auto loaded = LoadWorkload(path.string(), 2);
  fs::remove(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(WorkloadTest, HighDegreeUsersDriveSensitivity) {
  // Star graph: hub 0 with 10 leaves. CN(leaf_i, leaf_j) = 1 (the hub).
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.push_back({0, v});
  SocialGraph g = SocialGraph::FromEdges(11, edges);
  SimilarityWorkload w = SimilarityWorkload::Compute(g, CommonNeighbors());
  // Each leaf is similar to 9 other leaves with score 1 -> column sum 9;
  // the hub has no common neighbors with anyone.
  EXPECT_DOUBLE_EQ(w.MaxColumnSum(), 9.0);
  EXPECT_DOUBLE_EQ(w.RowSum(0), 0.0);
}

}  // namespace
}  // namespace privrec::similarity
