// Bit-identity of the pruned, tiled reconstruction
// (serving::ReconstructTopN) against a reference that does not go through
// it: per user, the similarity row folded to one weight per touched
// cluster in first-touch order, the scalar AccumulateRows over the full
// rows in that order, and SelectTopNInPlace on materialized (item,
// utility) pairs. Every route to the Cluster mechanism runs
// ReconstructTopN, so comparing the routes with each other cannot catch a
// tiling or pruning bug; this test can. Lists, utilities and degradation
// reasons must match exactly across batch sizes around the tile group,
// item counts around the tile block, every top-N edge, f64 and f32 rows,
// a tie-heavy table and a structured one that prunes most blocks, with
// isolated users and a sanitized cluster in every release. The bound
// tables come from serving::BuildBlockBounds, the engine's own
// derivation, and the pruning itself is checked through the counts
// ReconstructTopN returns: most blocks skipped, users finishing both
// best-first and in the walk, and equal utilities across blocks won by
// the lower item id.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/reconstruct.h"
#include "common/parallel.h"
#include "core/degradation.h"
#include "core/recommendation.h"
#include "kernels/accumulate.h"
#include "kernels/select.h"

namespace privrec {
namespace {

using kernels::kAccumulateBlockItems;
using serving::kBestFirstBudgetPercent;
using serving::kBoundBlockItems;
using serving::kReconstructGroupUsers;

constexpr int64_t kClusters = 9;
constexpr int64_t kSocialUsers = 240;
constexpr int64_t kSanitizedCluster = 4;
constexpr int64_t kFlixsterItems = 48'756;

struct WorkloadEntry {
  graph::NodeId user;
  double score;
};

// A synthetic release plus workload: everything ReconstructTopN reads.
struct Fixture {
  int64_t num_items = 0;
  std::vector<double> values;  // [cluster][item]
  std::vector<float> values_f32;
  std::vector<uint8_t> sanitized;
  std::vector<int64_t> cluster_of;
  std::vector<int64_t> cluster_sizes;
  std::vector<std::vector<WorkloadEntry>> workload;  // per social user
  // Per-cluster row tables into `values` and `values_f32`.
  std::vector<const double*> rows;
  std::vector<const float*> rows_f32;
  // Bound tables over the f64 rows and over the f32 mirror.
  std::vector<double> block_max;
  std::vector<double> block_max_f32;

  serving::ReleaseView View(bool f32) const {
    serving::ReleaseView view;
    view.rows = rows.data();
    view.rows_f32 = f32 ? rows_f32.data() : nullptr;
    view.block_max = f32 ? block_max_f32.data() : block_max.data();
    view.sanitized = sanitized.data();
    view.cluster_of = cluster_of.data();
    view.cluster_sizes = cluster_sizes.data();
    view.num_clusters = kClusters;
    view.num_items = num_items;
    view.num_users = kSocialUsers;
    return view;
  }

  // Mirrors the f64 values to f32, points the row tables into both, and
  // derives both bound tables the way the engine does at open.
  void Finish() {
    values_f32.clear();
    for (double v : values) values_f32.push_back(static_cast<float>(v));
    rows.clear();
    rows_f32.clear();
    for (int64_t c = 0; c < kClusters; ++c) {
      rows.push_back(values.data() + c * num_items);
      rows_f32.push_back(values_f32.data() + c * num_items);
    }
    ASSERT_TRUE(serving::BuildBlockBounds(View(false), &block_max).ok());
    ASSERT_TRUE(serving::BuildBlockBounds(View(true), &block_max_f32).ok());
  }
};

// Best-first's budget at `num_items`, as ReconstructTopN derives it.
int64_t Budget(int64_t num_items) {
  const int64_t blocks = (num_items + kBoundBlockItems - 1) / kBoundBlockItems;
  return std::max<int64_t>(1, blocks * kBestFirstBudgetPercent / 100);
}

// `ties` rounds every table value and similarity score to a multiple of
// 0.25, so utilities are short exact sums and collide often: the rank
// order then rests on the item-id tie-break. Every fifth social user has
// an empty similarity row (isolated), and one cluster is flagged as
// sanitized.
Fixture MakeFixture(int64_t num_items, bool ties, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  auto draw = [&](double scale) {
    double v = unit(rng) * scale;
    return ties ? std::round(v * 4.0) / 4.0 : v;
  };
  Fixture f;
  f.num_items = num_items;
  f.values.resize(static_cast<size_t>(kClusters * num_items));
  for (double& v : f.values) v = draw(ties ? 2.0 : 1.0);
  f.sanitized.assign(kClusters, 0);
  f.sanitized[kSanitizedCluster] = 1;
  f.cluster_sizes.assign(kClusters, 0);
  for (int64_t v = 0; v < kSocialUsers; ++v) {
    const auto c = static_cast<int64_t>(rng() % kClusters);
    f.cluster_of.push_back(c);
    ++f.cluster_sizes[static_cast<size_t>(c)];
  }
  f.workload.resize(kSocialUsers);
  for (int64_t u = 0; u < kSocialUsers; ++u) {
    if (u % 5 == 0) continue;
    const auto neighbours = static_cast<int64_t>(1 + rng() % 12);
    for (int64_t k = 0; k < neighbours; ++k) {
      const auto v = static_cast<graph::NodeId>(rng() % kSocialUsers);
      double score = std::abs(draw(1.0));
      if (score == 0.0) score = 0.25;
      f.workload[static_cast<size_t>(u)].push_back({v, score});
    }
  }
  f.Finish();
  return f;
}

// A release with structure over its noise, the shape that lets the
// bounds prune: every cluster row is uniform noise in [-1, 1] plus a few
// strong items (values 4 to 8) packed into two of its blocks, between 2
// and 20 per cluster. Users have 1 to 4 neighbours, so they touch few
// clusters; every fifth is isolated, and one cluster is sanitized.
Fixture MakeStructuredFixture(int64_t num_items, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  std::uniform_real_distribution<double> strong(4.0, 8.0);
  const int64_t num_blocks =
      (num_items + kBoundBlockItems - 1) / kBoundBlockItems;
  Fixture f;
  f.num_items = num_items;
  f.values.resize(static_cast<size_t>(kClusters * num_items));
  for (double& v : f.values) v = noise(rng);
  for (int64_t c = 0; c < kClusters; ++c) {
    const int64_t num_strong = 2 + 6 * (c % 4);
    const int64_t blocks[2] = {static_cast<int64_t>(rng() % num_blocks),
                               static_cast<int64_t>(rng() % num_blocks)};
    for (int64_t k = 0; k < num_strong; ++k) {
      const int64_t item = std::min(
          num_items - 1, blocks[k % 2] * kBoundBlockItems +
                             static_cast<int64_t>(rng() % kBoundBlockItems));
      f.values[static_cast<size_t>(c * num_items + item)] = strong(rng);
    }
  }
  f.sanitized.assign(kClusters, 0);
  f.sanitized[kSanitizedCluster] = 1;
  f.cluster_sizes.assign(kClusters, 0);
  for (int64_t v = 0; v < kSocialUsers; ++v) {
    const auto c = static_cast<int64_t>(rng() % kClusters);
    f.cluster_of.push_back(c);
    ++f.cluster_sizes[static_cast<size_t>(c)];
  }
  f.workload.resize(kSocialUsers);
  for (int64_t u = 0; u < kSocialUsers; ++u) {
    if (u % 5 == 0) continue;
    const auto neighbours = static_cast<int64_t>(1 + rng() % 4);
    for (int64_t k = 0; k < neighbours; ++k) {
      const auto v = static_cast<graph::NodeId>(rng() % kSocialUsers);
      f.workload[static_cast<size_t>(u)].push_back(
          {v, 0.25 + static_cast<double>(rng() % 8) * 0.25});
    }
  }
  f.Finish();
  return f;
}

std::vector<graph::NodeId> MakeBatch(int64_t size, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<graph::NodeId> users;
  users.reserve(static_cast<size_t>(size));
  for (int64_t k = 0; k < size; ++k) {
    users.push_back(static_cast<graph::NodeId>(rng() % kSocialUsers));
  }
  return users;
}

// One user's reference utilities, or an empty vector for an isolated
// user, with the degradation reason the reconstruction must report.
struct ReferenceUser {
  std::vector<double> utilities;
  core::DegradationReason reason = core::DegradationReason::kNone;
};

ReferenceUser ReferenceUtilities(const Fixture& f, bool f32,
                                 graph::NodeId u) {
  ReferenceUser out;
  std::vector<int64_t> order;
  std::vector<double> weight(kClusters, 0.0);
  for (const WorkloadEntry& e : f.workload[static_cast<size_t>(u)]) {
    const int64_t c = f.cluster_of[static_cast<size_t>(e.user)];
    if (weight[static_cast<size_t>(c)] == 0.0) order.push_back(c);
    weight[static_cast<size_t>(c)] += e.score;
  }
  if (order.empty()) {
    out.reason = core::DegradationReason::kIsolatedUser;
    return out;
  }
  std::vector<double> scales;
  std::vector<const double*> rows;
  std::vector<const float*> rows_f32;
  for (int64_t c : order) {
    scales.push_back(weight[static_cast<size_t>(c)]);
    rows.push_back(f.values.data() + c * f.num_items);
    rows_f32.push_back(f.values_f32.data() + c * f.num_items);
    if (f.sanitized[static_cast<size_t>(c)]) {
      out.reason = core::DegradationReason::kNonFiniteSanitized;
    }
  }
  out.utilities.assign(static_cast<size_t>(f.num_items), 0.0);
  const auto num_rows = static_cast<int64_t>(scales.size());
  if (f32) {
    kernels::AccumulateRowsF32Scalar(rows_f32.data(), scales.data(),
                                     num_rows, f.num_items,
                                     out.utilities.data());
  } else {
    kernels::AccumulateRowsScalar(rows.data(), scales.data(), num_rows,
                                  f.num_items, out.utilities.data());
  }
  return out;
}

core::RecommendationList ReferenceList(const std::vector<double>& utilities,
                                       int64_t top_n) {
  core::RecommendationList pairs;
  pairs.reserve(utilities.size());
  for (size_t i = 0; i < utilities.size(); ++i) {
    pairs.push_back({static_cast<graph::ItemId>(i), utilities[i]});
  }
  kernels::SelectTopNInPlace(pairs, top_n);
  return pairs;
}

std::vector<int64_t> TopNs(int64_t num_items) {
  return {0, 1, 10, 50, num_items, num_items + 3};
}

struct Served {
  std::vector<core::RecommendationList> lists;
  std::vector<core::DegradationInfo> degradation;
  serving::ReconstructCounts counts;
};

Served Reconstruct(const Fixture& f, bool f32,
                   const std::vector<graph::NodeId>& batch, int64_t top_n) {
  const serving::ReleaseView view = f.View(f32);
  const std::vector<double> global = serving::GlobalAverageUtilities(view);
  Served out;
  Result<serving::ReconstructCounts> counts = serving::ReconstructTopN(
      view,
      [&f](graph::NodeId u) -> const std::vector<WorkloadEntry>& {
        return f.workload[static_cast<size_t>(u)];
      },
      [&global]() -> const std::vector<double>& { return global; }, batch,
      top_n, &out.lists, &out.degradation);
  EXPECT_TRUE(counts.ok());
  if (counts.ok()) out.counts = *counts;
  return out;
}

// Runs ReconstructTopN on `batch` at every top-N edge (or at `top_ns`
// when given) and compares each user's list, utilities and degradation
// with the reference.
void ExpectMatchesReference(const Fixture& f, bool f32,
                            const std::vector<graph::NodeId>& batch,
                            const std::string& label,
                            std::vector<int64_t> top_ns = {}) {
  if (top_ns.empty()) top_ns = TopNs(f.num_items);
  const std::vector<double> global =
      serving::GlobalAverageUtilities(f.View(f32));
  std::vector<ReferenceUser> reference(kSocialUsers);
  std::vector<bool> computed(kSocialUsers, false);
  for (graph::NodeId u : batch) {
    if (computed[static_cast<size_t>(u)]) continue;
    reference[static_cast<size_t>(u)] = ReferenceUtilities(f, f32, u);
    computed[static_cast<size_t>(u)] = true;
  }
  for (int64_t top_n : top_ns) {
    const Served served = Reconstruct(f, f32, batch, top_n);
    const std::vector<core::RecommendationList>& lists = served.lists;
    const std::vector<core::DegradationInfo>& degradation =
        served.degradation;
    ASSERT_EQ(lists.size(), batch.size()) << label;
    ASSERT_EQ(degradation.size(), batch.size()) << label;
    // Batches repeat users; select each distinct user's list once.
    std::vector<core::RecommendationList> expected_of(kSocialUsers);
    for (size_t u = 0; u < expected_of.size(); ++u) {
      if (!computed[u]) continue;
      const ReferenceUser& ref = reference[u];
      expected_of[u] = ReferenceList(
          ref.reason == core::DegradationReason::kIsolatedUser
              ? global
              : ref.utilities,
          top_n);
    }
    int64_t expected_degraded = 0;
    for (size_t k = 0; k < batch.size(); ++k) {
      const ReferenceUser& ref = reference[static_cast<size_t>(batch[k])];
      const core::RecommendationList& expected =
          expected_of[static_cast<size_t>(batch[k])];
      // operator== on Recommendation compares utilities with ==, i.e.
      // bit for bit for the finite values here.
      ASSERT_EQ(lists[k], expected)
          << label << " top_n=" << top_n << " batch index " << k
          << " user " << batch[k];
      ASSERT_EQ(degradation[k].reason, ref.reason)
          << label << " top_n=" << top_n << " batch index " << k;
      if (ref.reason != core::DegradationReason::kNone) ++expected_degraded;
    }
    EXPECT_EQ(served.counts.degraded, expected_degraded)
        << label << " top_n=" << top_n;
  }
}

TEST(ReconstructReferenceTest, BatchSizesAroundTheTileGroup) {
  // Two item blocks, the second one item long.
  const Fixture f = MakeFixture(kAccumulateBlockItems + 1, false, 11);
  for (int64_t size :
       {int64_t{1}, kReconstructGroupUsers - 1, kReconstructGroupUsers,
        kReconstructGroupUsers + 1, int64_t{10'000}}) {
    const std::vector<graph::NodeId> batch =
        MakeBatch(size, static_cast<uint64_t>(size));
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, batch,
                             "batch=" + std::to_string(size) +
                                 (f32 ? " f32" : " f64"));
    }
  }
}

TEST(ReconstructReferenceTest, ItemCountsAroundTheTileBlock) {
  for (int64_t items :
       {int64_t{7}, kAccumulateBlockItems - 1, kAccumulateBlockItems,
        kAccumulateBlockItems + 1, kFlixsterItems}) {
    for (bool ties : {false, true}) {
      const Fixture f =
          MakeFixture(items, ties, static_cast<uint64_t>(items) + ties);
      const std::vector<graph::NodeId> batch =
          MakeBatch(kReconstructGroupUsers + 1, 5);
      for (bool f32 : {false, true}) {
        ExpectMatchesReference(f, f32, batch,
                               "items=" + std::to_string(items) +
                                   (ties ? " ties" : "") +
                                   (f32 ? " f32" : " f64"));
      }
    }
  }
}

TEST(ReconstructReferenceTest, TieHeavyTableAtEveryThreadCount) {
  const Fixture f = MakeFixture(3 * kAccumulateBlockItems + 5, true, 3);
  const std::vector<graph::NodeId> batch = MakeBatch(500, 9);
  for (int64_t threads : {1, 2, 4}) {
    ScopedThreadCount scoped(threads);
    ExpectMatchesReference(f, false, batch,
                           "threads=" + std::to_string(threads));
  }
}

TEST(ReconstructReferenceTest, SingleUsersCoverEveryDegradation) {
  const Fixture f = MakeFixture(kAccumulateBlockItems + 1, true, 21);
  graph::NodeId isolated = -1;
  graph::NodeId sanitized = -1;
  graph::NodeId clean = -1;
  for (graph::NodeId u = 0; u < kSocialUsers; ++u) {
    switch (ReferenceUtilities(f, false, u).reason) {
      case core::DegradationReason::kIsolatedUser:
        if (isolated < 0) isolated = u;
        break;
      case core::DegradationReason::kNonFiniteSanitized:
        if (sanitized < 0) sanitized = u;
        break;
      default:
        if (clean < 0) clean = u;
        break;
    }
  }
  ASSERT_GE(isolated, 0);
  ASSERT_GE(sanitized, 0);
  ASSERT_GE(clean, 0);
  for (graph::NodeId u : {isolated, sanitized, clean}) {
    ExpectMatchesReference(f, false, {u}, "user=" + std::to_string(u));
  }
}

// Lists already in the output slots (a reused batch) are replaced, not
// extended: the running top-N starts from an empty heap per user.
TEST(ReconstructReferenceTest, ReusedOutputSlotsAreOverwritten) {
  const Fixture f = MakeFixture(kAccumulateBlockItems + 1, false, 31);
  const serving::ReleaseView view = f.View(false);
  const std::vector<double> global = serving::GlobalAverageUtilities(view);
  const std::vector<graph::NodeId> batch = MakeBatch(40, 2);
  auto run = [&](std::vector<core::RecommendationList>* lists) {
    std::vector<core::DegradationInfo> degradation;
    ASSERT_TRUE(serving::ReconstructTopN(
                    view,
                    [&f](graph::NodeId u)
                        -> const std::vector<WorkloadEntry>& {
                      return f.workload[static_cast<size_t>(u)];
                    },
                    [&global]() -> const std::vector<double>& {
                      return global;
                    },
                    batch, 10, lists, &degradation)
                    .ok());
  };
  std::vector<core::RecommendationList> fresh;
  run(&fresh);
  std::vector<core::RecommendationList> reused(batch.size());
  for (auto& list : reused) list.push_back({0, 1e300});
  run(&reused);
  EXPECT_EQ(reused, fresh);
}

// ---------------------------------------------------------------- pruning

constexpr int64_t kStructuredItems = 9'000;

// The structured release at every top-N edge, f64 and f32, on 1, 2 and 4
// threads: pruned lists equal the dense reference.
TEST(ReconstructPruningTest, StructuredReleaseMatchesAtEveryThreadCount) {
  const Fixture f = MakeStructuredFixture(kStructuredItems, 41);
  const std::vector<graph::NodeId> batch = MakeBatch(120, 13);
  for (int64_t threads : {1, 2, 4}) {
    ScopedThreadCount scoped(threads);
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, batch,
                             "structured threads=" + std::to_string(threads) +
                                 (f32 ? " f32" : " f64"));
    }
  }
}

// The pruning is real, not just harmless: at top-10 over 90% of the
// structured release's blocks are never summed, and some users finish
// best-first (within the budget) while others finish in the walk (past
// it). Top-50 is longer than the budget (14 blocks), so every user goes
// straight to the walk. At both, the batch counts are the sum of the
// one-user counts, at any thread count.
TEST(ReconstructPruningTest, MostBlocksAreSkippedAndBothPhasesFinishUsers) {
  const Fixture f = MakeStructuredFixture(kStructuredItems, 41);
  const int64_t num_blocks = f.View(false).NumBlocks();
  const int64_t budget = Budget(kStructuredItems);
  for (int64_t top_n : {int64_t{10}, int64_t{50}}) {
    for (bool f32 : {false, true}) {
      const std::string label =
          "top_n=" + std::to_string(top_n) + (f32 ? " f32" : " f64");
      int64_t best_first = 0;
      int64_t walked = 0;
      serving::ReconstructCounts sum;
      std::vector<graph::NodeId> batch;
      for (graph::NodeId u = 0; u < kSocialUsers; ++u) {
        batch.push_back(u);
        const Served one = Reconstruct(f, f32, {u}, top_n);
        sum.blocks_visited += one.counts.blocks_visited;
        sum.blocks_total += one.counts.blocks_total;
        if (one.counts.blocks_total == 0) continue;  // isolated
        EXPECT_EQ(one.counts.blocks_total, num_blocks) << label;
        (one.counts.blocks_visited <= budget ? best_first : walked) += 1;
      }
      EXPECT_GT(walked, 0) << label;
      if (top_n == 10) {
        EXPECT_GT(best_first, 0) << label;
        EXPECT_LT(sum.blocks_visited * 10, sum.blocks_total) << label;
      }
      for (int64_t threads : {1, 4}) {
        ScopedThreadCount scoped(threads);
        const Served all = Reconstruct(f, f32, batch, top_n);
        EXPECT_EQ(all.counts.blocks_visited, sum.blocks_visited) << label;
        EXPECT_EQ(all.counts.blocks_total, sum.blocks_total) << label;
      }
    }
  }
}

// A batch is served cluster by cluster, in chunks of that order, and its
// lists go back to their slots: a shuffled batch over every cluster, with
// repeated and isolated users, gets slot by slot the list and degradation
// of the one-user call, and its counts are the sums of theirs, at every
// thread count, f64 and f32, in both phases (top-10 finishes users
// best-first, top-50 walks them all).
TEST(ReconstructPruningTest, ShuffledBatchMatchesOneUserCallsSlotBySlot) {
  const Fixture f = MakeStructuredFixture(kStructuredItems, 43);
  std::vector<graph::NodeId> batch;
  for (graph::NodeId u = 0; u < kSocialUsers; ++u) {
    batch.push_back(u);
    if (u % 3 == 0) batch.push_back(u);
  }
  std::mt19937_64 rng(17);
  std::shuffle(batch.begin(), batch.end(), rng);
  int64_t isolated = 0;
  int64_t descents = 0;  // neighbours in the batch that are out of order
  for (size_t k = 0; k < batch.size(); ++k) {
    if (f.workload[static_cast<size_t>(batch[k])].empty()) ++isolated;
    if (k > 0 && f.cluster_of[static_cast<size_t>(batch[k])] <
                     f.cluster_of[static_cast<size_t>(batch[k - 1])]) {
      ++descents;
    }
  }
  ASSERT_GT(isolated, 0);
  ASSERT_GT(descents, 0);
  for (int64_t top_n : {int64_t{10}, int64_t{50}}) {
    for (bool f32 : {false, true}) {
      const std::string label =
          "top_n=" + std::to_string(top_n) + (f32 ? " f32" : " f64");
      std::vector<Served> one(kSocialUsers);
      for (graph::NodeId u = 0; u < kSocialUsers; ++u) {
        one[static_cast<size_t>(u)] = Reconstruct(f, f32, {u}, top_n);
      }
      serving::ReconstructCounts sum;
      for (graph::NodeId u : batch) {
        const serving::ReconstructCounts& c =
            one[static_cast<size_t>(u)].counts;
        sum.degraded += c.degraded;
        sum.blocks_visited += c.blocks_visited;
        sum.blocks_total += c.blocks_total;
      }
      for (int64_t threads : {1, 2, 4}) {
        ScopedThreadCount scoped(threads);
        const Served all = Reconstruct(f, f32, batch, top_n);
        ASSERT_EQ(all.lists.size(), batch.size()) << label;
        ASSERT_EQ(all.degradation.size(), batch.size()) << label;
        for (size_t k = 0; k < batch.size(); ++k) {
          const Served& alone = one[static_cast<size_t>(batch[k])];
          ASSERT_EQ(all.lists[k], alone.lists[0])
              << label << " threads=" << threads << " slot " << k;
          ASSERT_EQ(all.degradation[k].reason, alone.degradation[0].reason)
              << label << " threads=" << threads << " slot " << k;
        }
        EXPECT_EQ(all.counts.degraded, sum.degraded) << label;
        EXPECT_EQ(all.counts.blocks_visited, sum.blocks_visited) << label;
        EXPECT_EQ(all.counts.blocks_total, sum.blocks_total) << label;
      }
    }
  }
}

// No block is summed twice for one user: a walker resumes best-first's
// list and skips the blocks it summed, so a user's visited blocks never
// exceed its blocks, even where the bounds prune almost nothing (the
// unstructured release) and every user spends best-first's budget.
TEST(ReconstructPruningTest, VisitedBlocksNeverExceedTheUsersBlocks) {
  for (bool structured : {false, true}) {
    const Fixture f = structured
                          ? MakeStructuredFixture(kStructuredItems, 41)
                          : MakeFixture(kStructuredItems, false, 47);
    for (int64_t top_n : {1, 10, 50}) {
      for (bool f32 : {false, true}) {
        for (graph::NodeId u = 0; u < kSocialUsers; ++u) {
          const Served one = Reconstruct(f, f32, {u}, top_n);
          EXPECT_LE(one.counts.blocks_visited, one.counts.blocks_total)
              << (structured ? "structured" : "unstructured")
              << " top_n=" << top_n << (f32 ? " f32" : " f64") << " user "
              << u;
        }
      }
    }
  }
}

// One user, 1, whose two neighbours sit in clusters 0 and 1 with weights
// `weight0` and 1, over a release of `num_blocks` blocks. Cluster 0's row
// is `fill0` and cluster 1's is 0 except at the items set in `cells0` /
// `cells1`, so with the defaults the user's utility is exactly cluster
// 0's value plus cluster 1's.
Fixture MakeOneUserFixture(
    int64_t num_blocks, const std::vector<std::pair<int64_t, double>>& cells0,
    const std::vector<std::pair<int64_t, double>>& cells1 = {},
    double fill0 = -1.0, double weight0 = 1.0) {
  Fixture f;
  f.num_items = num_blocks * kBoundBlockItems;
  f.values.assign(static_cast<size_t>(kClusters * f.num_items), 0.0);
  std::fill(f.values.begin(), f.values.begin() + f.num_items, fill0);
  for (auto [item, value] : cells0) f.values[static_cast<size_t>(item)] = value;
  for (auto [item, value] : cells1) {
    f.values[static_cast<size_t>(f.num_items + item)] = value;
  }
  f.sanitized.assign(kClusters, 0);
  f.cluster_sizes.assign(kClusters, 0);
  for (int64_t v = 0; v < kSocialUsers; ++v) {
    f.cluster_of.push_back(v % kClusters);
    ++f.cluster_sizes[static_cast<size_t>(v % kClusters)];
  }
  f.workload.resize(kSocialUsers);
  f.workload[1] = {{kClusters, weight0}, {kClusters + 1, 1.0}};  // clusters 0, 1
  f.Finish();
  return f;
}

// Equal utilities in different blocks rank by item id, whichever block
// is visited first: best-first must not stop at a block whose bound
// equals its worst kept utility, and the walk must not skip one.
TEST(ReconstructPruningTest, EqualUtilitiesAcrossBlocksGoToTheLowerId) {
  auto item = [](int64_t block, int64_t offset) {
    return block * kBoundBlockItems + offset;
  };
  // Best-first, 40 blocks (budget 2), top-2: block 39 fills the list
  // with {z, x}; block 0's bound equals x's utility, so it is visited
  // and y, with the lower id, displaces x. Two blocks in all.
  ASSERT_EQ(Budget(40 * kBoundBlockItems), 2);
  {
    const int64_t z = item(39, 5), x = item(39, 7), y = item(0, 3);
    const Fixture f = MakeOneUserFixture(40, {{z, 3.0}, {x, 1.0}, {y, 1.0}});
    const Served two = Reconstruct(f, false, {1}, 2);
    EXPECT_EQ(two.lists[0], (core::RecommendationList{{z, 3.0}, {y, 1.0}}));
    EXPECT_EQ(two.counts.blocks_visited, 2);
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, {1},
                             f32 ? "best-first f32" : "best-first");
    }
  }
  // Walk, 60 blocks (budget 3), top-3: best-first spends its budget on
  // blocks 59 {z, x}, 58 {q} and 57, a decoy whose bound (2.0) no item
  // reaches because its cluster maxima sit on different items. It holds
  // {z, q, x} with block 0's bound still equal to x's utility, so the
  // walk resumes from that list, visits block 0 and keeps y over x:
  // 3 best-first blocks, then block 0 alone in the walk, which skips the
  // three best-first summed.
  ASSERT_EQ(Budget(60 * kBoundBlockItems), 3);
  {
    const int64_t z = item(59, 5), x = item(59, 7), q = item(58, 1);
    const int64_t y = item(0, 3), a = item(57, 4), b = item(57, 9);
    const Fixture f = MakeOneUserFixture(
        60, {{z, 3.0}, {x, 1.0}, {q, 2.5}, {y, 1.0}, {a, 1.5}},
        {{a, -3.0}, {b, 0.5}});
    const Served three = Reconstruct(f, false, {1}, 3);
    EXPECT_EQ(three.lists[0],
              (core::RecommendationList{{z, 3.0}, {q, 2.5}, {y, 1.0}}));
    EXPECT_EQ(three.counts.blocks_visited, 3 + 1);
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, {1}, f32 ? "walk f32" : "walk");
    }
  }
}

// Utilities that overflow to -inf, which the open-time checks let
// through (finite scores >= 0, finite released values): a weight of
// 1e300 on cluster 0's row of -1e10. Then bounds and the worst kept
// utility read -inf as well, and a bound no longer tells a block
// best-first summed from one it did not. Each list must still hold every
// item once and match the reference, in best-first (top-1 and top-2 at
// 40 blocks, budget 2; up to top-10 at 200 blocks) and in the walk that
// resumes it. In the second release cluster 0 is 0 at z and y, so z
// (3.0, in the last block) and y (0.5, in the middle one) are finite.
TEST(ReconstructPruningTest, UtilitiesThatOverflowToMinusInfinityAreKeptOnce) {
  for (int64_t num_blocks : {40, 200}) {
    const int64_t z = (num_blocks - 1) * kBoundBlockItems + 5;
    const int64_t y = num_blocks / 2 * kBoundBlockItems + 2;
    for (bool finite_cells : {false, true}) {
      const Fixture f =
          finite_cells
              ? MakeOneUserFixture(num_blocks, {{z, 0.0}, {y, 0.0}},
                                   {{z, 3.0}, {y, 0.5}}, -1e10, 1e300)
              : MakeOneUserFixture(num_blocks, {}, {}, -1e10, 1e300);
      for (bool f32 : {false, true}) {
        const std::string label =
            std::to_string(num_blocks) + " blocks" +
            (finite_cells ? " z, y finite" : " all -inf") +
            (f32 ? " f32" : " f64");
        const std::vector<double> utilities =
            ReferenceUtilities(f, f32, 1).utilities;
        ASSERT_EQ(utilities[0], -INFINITY) << label;
        ASSERT_EQ(utilities[static_cast<size_t>(z)],
                  finite_cells ? 3.0 : -INFINITY)
            << label;
        ExpectMatchesReference(f, f32, {1}, label, {1, 2, 3, 10, 50});
        for (int64_t top_n : {1, 2, 3, 10, 50}) {
          const Served one = Reconstruct(f, f32, {1}, top_n);
          EXPECT_LE(one.counts.blocks_visited, one.counts.blocks_total)
              << label << " top_n=" << top_n;
        }
      }
    }
  }
}

// The bound table holds, per cluster and block, the largest value of the
// table reconstruction reads: the f64 rows, or the f32 mirror widened.
// The two differ wherever quantization rounded a block's maximum, so a
// bound taken from the wrong width could undercut an f32 utility.
TEST(ReconstructPruningTest, BlockBoundsReadTheRowsReconstructionReads) {
  const Fixture f = MakeFixture(kAccumulateBlockItems + 45, false, 51);
  const int64_t num_blocks = f.View(false).NumBlocks();
  ASSERT_EQ(f.block_max.size(), static_cast<size_t>(kClusters * num_blocks));
  ASSERT_EQ(f.block_max_f32.size(), f.block_max.size());
  int64_t differ = 0;
  for (int64_t c = 0; c < kClusters; ++c) {
    for (int64_t b = 0; b < num_blocks; ++b) {
      double hi = -INFINITY;
      double hi_f32 = -INFINITY;
      for (int64_t i = b * kBoundBlockItems;
           i < std::min(f.num_items, (b + 1) * kBoundBlockItems); ++i) {
        const auto cell = static_cast<size_t>(c * f.num_items + i);
        hi = std::max(hi, f.values[cell]);
        hi_f32 = std::max(hi_f32, static_cast<double>(f.values_f32[cell]));
      }
      const auto slot = static_cast<size_t>(c * num_blocks + b);
      EXPECT_EQ(f.block_max[slot], hi);
      EXPECT_EQ(f.block_max_f32[slot], hi_f32);
      if (hi != hi_f32) ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

// A non-finite released value fails the derivation, naming its table.
TEST(ReconstructPruningTest, NonFiniteValuesFailTheBoundDerivation) {
  Fixture f = MakeFixture(kAccumulateBlockItems + 1, false, 61);
  std::vector<double> table;
  f.values[123] = NAN;
  Status f64 = serving::BuildBlockBounds(f.View(false), &table);
  EXPECT_EQ(f64.code(), StatusCode::kParseError);
  EXPECT_NE(f64.message().find("'noisy_table'"), std::string::npos)
      << f64.message();
  f.values[123] = 0.5;
  f.values_f32[77] = INFINITY;
  Status f32 = serving::BuildBlockBounds(f.View(true), &table);
  EXPECT_EQ(f32.code(), StatusCode::kParseError);
  EXPECT_NE(f32.message().find("'noisy_table_f32'"), std::string::npos)
      << f32.message();
}

}  // namespace
}  // namespace privrec
