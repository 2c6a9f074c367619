// Tests for the dynamic-graph extension: budget allocation policies,
// sequential-composition accounting, release validity, and snapshot
// generation.

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "artifact/serving.h"
#include "common/fault_injection.h"
#include "core/dynamic_recommender.h"
#include "data/synthetic.h"
#include "eval/exact_reference.h"
#include "obs/metrics.h"
#include "similarity/common_neighbors.h"

namespace privrec::core {
namespace {

using graph::NodeId;

class DynamicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(150, 120, 21);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    users_ = {0, 5, 10, 15};
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  RecommenderContext context_;
  std::vector<NodeId> users_;
};

TEST_F(DynamicTest, UniformAllocationSplitsEvenly) {
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 1.0;
  opt.planned_snapshots = 4;
  DynamicRecommenderSession session(opt);
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(session.EpsilonForSnapshot(t), 0.25);
  }
}

TEST_F(DynamicTest, GeometricAllocationDecaysAndSumsBelowTotal) {
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 1.0;
  opt.allocation = BudgetAllocation::kGeometric;
  opt.geometric_ratio = 0.5;
  DynamicRecommenderSession session(opt);
  double sum = 0.0;
  double prev = 2.0;
  for (int64_t t = 0; t < 30; ++t) {
    double eps = session.EpsilonForSnapshot(t);
    EXPECT_LT(eps, prev);
    prev = eps;
    sum += eps;
  }
  EXPECT_LT(sum, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(session.EpsilonForSnapshot(0), 0.5);
}

TEST_F(DynamicTest, UniformSessionExhaustsAfterPlannedSnapshots) {
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 0.8;
  opt.planned_snapshots = 3;
  opt.louvain.restarts = 1;
  DynamicRecommenderSession session(opt);
  for (int t = 0; t < 3; ++t) {
    auto release = session.ProcessSnapshot(context_, users_, 5);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    EXPECT_EQ(release->snapshot_index, t);
    EXPECT_NEAR(release->epsilon_spent, 0.8 / 3.0, 1e-12);
    EXPECT_EQ(release->lists.size(), users_.size());
  }
  EXPECT_NEAR(session.epsilon_spent(), 0.8, 1e-9);
  auto fourth = session.ProcessSnapshot(context_, users_, 5);
  ASSERT_FALSE(fourth.ok());
  EXPECT_EQ(fourth.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(DynamicTest, GeometricSessionNeverExhausts) {
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 0.5;
  opt.allocation = BudgetAllocation::kGeometric;
  opt.geometric_ratio = 0.6;
  opt.louvain.restarts = 1;
  DynamicRecommenderSession session(opt);
  for (int t = 0; t < 8; ++t) {
    auto release = session.ProcessSnapshot(context_, users_, 5);
    ASSERT_TRUE(release.ok()) << "snapshot " << t;
    EXPECT_LE(release->cumulative_epsilon, 0.5 + 1e-9);
  }
}

TEST_F(DynamicTest, CumulativeEpsilonTracksSequentialComposition) {
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 1.0;
  opt.planned_snapshots = 5;
  opt.louvain.restarts = 1;
  DynamicRecommenderSession session(opt);
  double expected = 0.0;
  for (int t = 0; t < 5; ++t) {
    auto release = session.ProcessSnapshot(context_, users_, 5);
    ASSERT_TRUE(release.ok());
    expected += 0.2;
    EXPECT_NEAR(release->cumulative_epsilon, expected, 1e-9);
  }
}

TEST_F(DynamicTest, ReleasesAreRankedLists) {
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 2.0;
  opt.planned_snapshots = 2;
  opt.louvain.restarts = 1;
  DynamicRecommenderSession session(opt);
  auto release = session.ProcessSnapshot(context_, users_, 8);
  ASSERT_TRUE(release.ok());
  for (const RecommendationList& list : release->lists) {
    EXPECT_EQ(list.size(), 8u);
    for (size_t k = 1; k < list.size(); ++k) {
      EXPECT_GE(list[k - 1].utility, list[k].utility);
    }
  }
  EXPECT_GT(release->num_clusters, 1);
}

// Artifact-directory crash recovery (the streaming pipeline's resume
// path): a kill mid-publish can leave a torn snapshot_<t>.pvram or stale
// manifest and shard .tmp files — the resumed session must clear the temp
// files and skip-and-rebuild; an INTACT artifact whose provenance matches
// the resumed intent is reused instead of rebuilt, and both paths
// re-derive bit-identical lists.
TEST_F(DynamicTest, ArtifactResumeSkipsTornFilesAndReusesIntactOnes) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "privrec_dynamic_resume";
  const fs::path ref_dir =
      fs::temp_directory_path() / "privrec_dynamic_resume_ref";
  for (const fs::path& d : {dir, ref_dir}) {
    fs::remove_all(d);
    fs::create_directories(d / "artifacts");
  }
  DynamicRecommenderOptions opt;
  opt.total_epsilon = 1.0;
  opt.planned_snapshots = 4;
  opt.louvain.restarts = 1;
  opt.seed = 77;
  opt.ledger_path = (dir / "budget.ledger").string();
  opt.artifact_dir = (dir / "artifacts").string();

  // The no-crash reference: snapshot noise is a function of (seed, t), so
  // these lists are what every recovery below must reproduce exactly.
  DynamicRecommenderOptions ref_opt = opt;
  ref_opt.ledger_path = (ref_dir / "budget.ledger").string();
  ref_opt.artifact_dir = (ref_dir / "artifacts").string();
  auto reference = DynamicRecommenderSession::Open(ref_opt);
  ASSERT_TRUE(reference.ok());
  auto ref0 = reference->ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(ref0.ok()) << ref0.status().ToString();
  auto ref1 = reference->ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(ref1.ok());

  // Crash 1: the rename fails after the intent is journaled — no artifact
  // lands. Scatter torn crash debris where the artifact would go.
  {
    auto session = DynamicRecommenderSession::Open(opt);
    ASSERT_TRUE(session.ok());
    fault::FaultInjector::Instance().ArmNth(
        "artifact.rename", fault::FaultKind::kIoError, 1);
    auto crashed = session->ProcessSnapshot(context_, users_, 5);
    fault::FaultInjector::Instance().Reset();
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
  }
  const std::string torn = SnapshotArtifactPath(opt.artifact_dir, 0);
  const std::string shard_tmp = torn + ".shard0.0badf00d.tmp";
  for (const std::string& path : {torn, torn + ".tmp", shard_tmp}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "PVRM torn garbage";
  }

  // Resume: the pending intent is re-derived, the torn file is skipped
  // and overwritten by a clean rebuild, and no ε is re-charged.
  obs::Counter& reused =
      obs::GetCounter("privrec.dynamic.artifact_reused");
  const int64_t reused_before = reused.value();
  {
    auto session = DynamicRecommenderSession::Open(opt);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto release = session->ProcessSnapshot(context_, users_, 5);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    EXPECT_TRUE(release->resumed_from_intent);
    EXPECT_EQ(release->epsilon_spent, 0.0);
    EXPECT_EQ(release->lists, ref0->lists);
    EXPECT_EQ(reused.value(), reused_before);  // rebuilt, not reused
    auto rebuilt = serving::ServingEngine::Load(torn);
    EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_FALSE(fs::exists(torn + ".tmp"));
    EXPECT_FALSE(fs::exists(shard_tmp));

    // Crash 2: snapshot 1's artifact lands intact but the ledger COMMIT
    // fails (the second ledger.append of this call; the intent is the
    // first).
    fault::FaultInjector::Instance().ArmNth(
        "ledger.append", fault::FaultKind::kIoError, 2);
    auto crashed = session->ProcessSnapshot(context_, users_, 5);
    fault::FaultInjector::Instance().Reset();
    ASSERT_FALSE(crashed.ok());
  }

  // Resume again: this time the on-disk artifact matches the resumed
  // intent's (ε, seed) provenance and is served as-is — the reuse counter
  // moves, and the bits still match the reference. No save runs, so only
  // the resume path can clear the shard temp file a crash left behind.
  const std::string reused_tmp =
      SnapshotArtifactPath(opt.artifact_dir, 1) + ".shard0.0badf00d.tmp";
  std::ofstream(reused_tmp) << "torn";
  {
    auto session = DynamicRecommenderSession::Open(opt);
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(session->snapshots_processed(), 1);
    auto release = session->ProcessSnapshot(context_, users_, 5);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    EXPECT_TRUE(release->resumed_from_intent);
    EXPECT_EQ(release->lists, ref1->lists);
    // The counter is the only witness of reuse (both paths give the same
    // bits), and it reads 0 when obs is compiled out.
    if (obs::kCompiledIn) {
      EXPECT_EQ(reused.value(), reused_before + 1);
    }
    EXPECT_NEAR(session->epsilon_spent(), 0.5, 1e-9);
    EXPECT_FALSE(fs::exists(reused_tmp));
  }
}

// ------------------------------------------------- snapshot generation

TEST(GrowingSnapshotsTest, NestedAndComplete) {
  data::Dataset d = data::MakeTinyDataset(100, 80, 22);
  auto snapshots =
      data::GrowingPreferenceSnapshots(d.preferences, 4, 23);
  ASSERT_EQ(snapshots.size(), 4u);
  // Growing sizes, final equals the full graph.
  for (size_t t = 1; t < snapshots.size(); ++t) {
    EXPECT_GE(snapshots[t].num_edges(), snapshots[t - 1].num_edges());
  }
  EXPECT_EQ(snapshots.back().num_edges(), d.preferences.num_edges());
  // Nesting: every edge of snapshot t exists in snapshot t+1.
  for (size_t t = 0; t + 1 < snapshots.size(); ++t) {
    for (auto [u, i] : snapshots[t].Edges()) {
      EXPECT_GT(snapshots[t + 1].Weight(u, i), 0.0);
    }
  }
}

TEST(GrowingSnapshotsTest, ApproximatelyLinearGrowth) {
  data::Dataset d = data::MakeTinyDataset(120, 100, 24);
  auto snapshots =
      data::GrowingPreferenceSnapshots(d.preferences, 5, 25);
  int64_t total = d.preferences.num_edges();
  for (size_t t = 0; t < snapshots.size(); ++t) {
    double expected =
        static_cast<double>(total) * static_cast<double>(t + 1) / 5.0;
    EXPECT_NEAR(static_cast<double>(snapshots[t].num_edges()), expected,
                2.0);
  }
}

TEST(GrowingSnapshotsTest, PreservesWeights) {
  graph::PreferenceGraph weighted = graph::PreferenceGraph::FromWeightedEdges(
      3, 3, {{0, 0, 2.0}, {1, 1, 3.0}, {2, 2, 4.0}});
  auto snapshots = data::GrowingPreferenceSnapshots(weighted, 3, 26);
  EXPECT_TRUE(snapshots.back().is_weighted());
  EXPECT_DOUBLE_EQ(snapshots.back().Weight(2, 2), 4.0);
}

}  // namespace
}  // namespace privrec::core
