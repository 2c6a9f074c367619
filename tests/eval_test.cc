// Tests for the evaluation module: NDCG hand-computations, the
// ExactReference cache, the sweep driver, precision/recall and the table
// printer.

#include <cmath>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "core/exact_recommender.h"
#include "community/simple_clusterings.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "eval/exact_reference.h"
#include "eval/experiment.h"
#include "eval/ndcg.h"
#include "eval/table.h"
#include "mechanisms.h"
#include "similarity/common_neighbors.h"

namespace privrec::eval {
namespace {

using core::Recommendation;
using core::RecommendationList;
using graph::ItemId;
using graph::NodeId;

// ----------------------------------------------------------------- NDCG

TEST(RankDiscountTest, KnownValues) {
  EXPECT_DOUBLE_EQ(RankDiscount(1), 1.0);
  EXPECT_DOUBLE_EQ(RankDiscount(2), 2.0);
  EXPECT_DOUBLE_EQ(RankDiscount(4), 3.0);
  EXPECT_NEAR(RankDiscount(3), std::log2(3.0) + 1.0, 1e-12);
}

TEST(DcgTest, HandComputed) {
  RecommendationList list = {{7, 0.0}, {3, 0.0}, {9, 0.0}};
  auto util = [](ItemId i) -> double {
    if (i == 7) return 4.0;
    if (i == 3) return 2.0;
    return 0.0;  // item 9 has no true utility
  };
  // 4/1 + 2/2 + 0 = 5.
  EXPECT_DOUBLE_EQ(Dcg(list, util), 5.0);
}

TEST(DcgTest, EmptyListIsZero) {
  EXPECT_DOUBLE_EQ(Dcg({}, [](ItemId) { return 1.0; }), 0.0);
}

TEST(NdcgTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(NdcgFromDcg(5.0, 5.0), 1.0);
}

TEST(NdcgTest, ZeroIdealDcgConventionIsOne) {
  EXPECT_DOUBLE_EQ(NdcgFromDcg(0.0, 0.0), 1.0);
}

TEST(NdcgTest, SwappedEqualUtilityItemsIncurNoPenalty) {
  // The paper's Section 2.4 motivation: replacing an item by another of
  // equal utility must not be penalized.
  auto util = [](ItemId i) -> double { return (i == 1 || i == 2) ? 3.0 : 0.0; };
  RecommendationList ideal = {{1, 3.0}, {2, 3.0}};
  RecommendationList swapped = {{2, 3.0}, {1, 3.0}};
  double ideal_dcg = Dcg(ideal, util);
  EXPECT_DOUBLE_EQ(NdcgFromDcg(Dcg(swapped, util), ideal_dcg), 1.0);
}

TEST(NdcgTest, MissingTopItemCostsMoreThanMissingLastItem) {
  // Utilities 8, 4, 2, 1 at ranks 1..4.
  auto util = [](ItemId i) -> double {
    double u[] = {8, 4, 2, 1};
    return i < 4 ? u[i] : 0.0;
  };
  RecommendationList ideal = {{0, 8}, {1, 4}, {2, 2}, {3, 1}};
  double ideal_dcg = Dcg(ideal, util);
  // Replace the top item with a zero-utility item vs the last item.
  RecommendationList miss_top = {{9, 0}, {1, 4}, {2, 2}, {3, 1}};
  RecommendationList miss_last = {{0, 8}, {1, 4}, {2, 2}, {9, 0}};
  double ndcg_top = NdcgFromDcg(Dcg(miss_top, util), ideal_dcg);
  double ndcg_last = NdcgFromDcg(Dcg(miss_last, util), ideal_dcg);
  EXPECT_LT(ndcg_top, ndcg_last);
}

// ---------------------------------------------------- Precision / recall

TEST(PrecisionRecallTest, RankInsensitivityMotivatesNdcg) {
  // Precision cannot distinguish a list that puts the best item first from
  // one that buries it — NDCG can. (Section 2.4.) Both lists hit the two
  // relevant items 1 and 2, so their precision is the same 2/3.
  RecommendationList best_first = {{1, 0}, {2, 0}, {8, 0}};
  RecommendationList best_last = {{8, 0}, {2, 0}, {1, 0}};
  auto hits = [](const RecommendationList& list) {
    int64_t n = 0;
    for (const auto& r : list) n += (r.item == 1 || r.item == 2) ? 1 : 0;
    return n;
  };
  EXPECT_EQ(hits(best_first), 2);
  EXPECT_EQ(hits(best_last), 2);
  auto util = [](ItemId i) -> double { return i == 1 ? 5.0 : (i == 2 ? 1.0 : 0.0); };
  EXPECT_GT(Dcg(best_first, util), Dcg(best_last, util));
}

// --------------------------------------------------------- ExactReference

class ExactReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(120, 100, 7);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    for (NodeId u = 0; u < dataset_.social.num_nodes(); ++u) {
      users_.push_back(u);
    }
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  core::RecommenderContext context_;
  std::vector<NodeId> users_;
};

TEST_F(ExactReferenceTest, ExactRecommenderScoresPerfectNdcg) {
  ExactReference ref = ExactReference::Compute(context_, users_, 20);
  core::ExactRecommender exact(context_);
  auto lists = exact.Recommend(users_, 20);
  EXPECT_NEAR(ref.MeanNdcg(lists), 1.0, 1e-9);
  for (size_t k = 0; k < users_.size(); ++k) {
    EXPECT_NEAR(ref.Ndcg(users_[k], lists[k]), 1.0, 1e-9);
  }
}

TEST_F(ExactReferenceTest, IdealUtilityMatchesRecommender) {
  ExactReference ref = ExactReference::Compute(context_, users_, 10);
  core::ExactRecommender exact(context_);
  auto row = exact.UtilityRow(3);
  for (auto [item, util] : row) {
    EXPECT_DOUBLE_EQ(ref.IdealUtility(3, item), util);
  }
  // Items outside the row are zero.
  EXPECT_DOUBLE_EQ(ref.IdealUtility(3, dataset_.preferences.num_items() - 1),
                   ref.IdealUtility(3, dataset_.preferences.num_items() - 1));
}

TEST_F(ExactReferenceTest, ReversedListScoresBelowOne) {
  ExactReference ref = ExactReference::Compute(context_, users_, 10);
  core::ExactRecommender exact(context_);
  for (NodeId u : {0, 5, 10}) {
    RecommendationList list = exact.RecommendOne(u, 10);
    if (list.size() < 3) continue;
    // Only a strict reversal of *distinct* utilities must lose DCG.
    if (list.front().utility == list.back().utility) continue;
    RecommendationList reversed(list.rbegin(), list.rend());
    EXPECT_LT(ref.Ndcg(u, reversed), 1.0);
    EXPECT_GT(ref.Ndcg(u, reversed), 0.0);
  }
}

TEST_F(ExactReferenceTest, NdcgBoundedByOneForArbitraryLists) {
  ExactReference ref = ExactReference::Compute(context_, users_, 10);
  Rng rng(77);
  for (NodeId u : users_) {
    RecommendationList junk;
    for (int k = 0; k < 10; ++k) {
      junk.push_back({static_cast<ItemId>(rng.UniformInt(
                          static_cast<uint64_t>(
                              dataset_.preferences.num_items()))),
                      0.0});
    }
    double ndcg = ref.Ndcg(u, junk);
    EXPECT_GE(ndcg, 0.0);
    EXPECT_LE(ndcg, 1.0 + 1e-9);
  }
}

TEST_F(ExactReferenceTest, IdealDcgIsMonotoneInN) {
  ExactReference ref = ExactReference::Compute(context_, users_, 20);
  for (NodeId u : {1, 2, 3}) {
    for (int64_t n = 1; n < 20; ++n) {
      EXPECT_LE(ref.IdealDcg(u, n), ref.IdealDcg(u, n + 1) + 1e-12);
    }
  }
}

// ------------------------------------------------------------ Experiment

TEST_F(ExactReferenceTest, SweepShapesAndDeterminism) {
  ExactReference ref = ExactReference::Compute(context_, users_, 10);
  community::Partition phi = community::RandomClusters(120, 8, 3);
  RecommenderFactory factory = [&](double eps, uint64_t seed) {
    return test_mechanisms::MakeCluster(context_, phi, eps, seed);
  };
  SweepOptions opt;
  opt.epsilons = {dp::kEpsilonInfinity, 0.1};
  opt.ns = {5, 10};
  opt.trials = 2;
  opt.seed = 9;
  auto cells = RunNdcgSweep(factory, ref, opt);
  ASSERT_EQ(cells.size(), 4u);
  for (const SweepCell& cell : cells) {
    EXPECT_GE(cell.mean_ndcg, 0.0);
    EXPECT_LE(cell.mean_ndcg, 1.0 + 1e-9);
    EXPECT_EQ(cell.trials, 2);
  }
  // Deterministic re-run.
  auto cells2 = RunNdcgSweep(factory, ref, opt);
  for (size_t k = 0; k < cells.size(); ++k) {
    EXPECT_DOUBLE_EQ(cells[k].mean_ndcg, cells2[k].mean_ndcg);
  }
  // eps = inf should not be worse than eps = 0.1 for the same N.
  EXPECT_GE(cells[0].mean_ndcg, cells[2].mean_ndcg - 0.05);
}

TEST(TruncateListsTest, Truncates) {
  std::vector<RecommendationList> lists = {
      {{1, 3.0}, {2, 2.0}, {3, 1.0}}, {{4, 1.0}}};
  auto cut = TruncateLists(lists, 2);
  EXPECT_EQ(cut[0].size(), 2u);
  EXPECT_EQ(cut[1].size(), 1u);
}

// ----------------------------------------------------------------- Table

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"measure", "eps", "NDCG@50"});
  t.AddRow({"CN", "0.1", "0.701"});
  t.AddRow({"KZ", "inf", "0.87"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("measure"), std::string::npos);
  EXPECT_NE(out.find("0.701"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, PadsMissingCells) {
  TablePrinter t({"a", "b"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace privrec::eval
