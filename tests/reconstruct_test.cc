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
// isolated users and a sanitized cluster in every release. The bound and
// line tables come from serving::BuildBlockBounds and the tile tables
// from serving::BuildTileBounds, the engine's own derivations, and the
// pruning itself is checked through the counts ReconstructTopN returns:
// most blocks skipped, users finishing both best-first and in the walk,
// equal utilities across blocks and across the lines of a block won by
// the lower item id, a visited block summing only its one live line, no
// block summing more lines than it has, and every user's visited blocks
// equal to those of best-first over the full bound row (the order the
// lazy tile bounds must keep).

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
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

using serving::kBestFirstBudgetPercent;
using serving::kBoundBlockItems;
using serving::kBoundBlockLines;
using serving::kBoundLineItems;
using serving::kBoundTileBlocks;
using serving::kReconstructGroupUsers;
using serving::kWalkTileItems;

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
  // Bound, tile and line tables over the f64 rows and over the f32
  // mirror.
  std::vector<double> block_max;
  std::vector<double> block_max_f32;
  std::vector<double> tile_max;
  std::vector<double> tile_max_f32;
  std::vector<float> line_max;
  std::vector<float> line_max_f32;

  serving::ReleaseView View(bool f32) const {
    serving::ReleaseView view;
    view.rows = rows.data();
    view.rows_f32 = f32 ? rows_f32.data() : nullptr;
    view.block_max = f32 ? block_max_f32.data() : block_max.data();
    view.tile_max = f32 ? tile_max_f32.data() : tile_max.data();
    view.line_max = f32 ? line_max_f32.data() : line_max.data();
    view.sanitized = sanitized.data();
    view.cluster_of = cluster_of.data();
    view.cluster_sizes = cluster_sizes.data();
    view.num_clusters = kClusters;
    view.num_items = num_items;
    view.num_users = kSocialUsers;
    return view;
  }

  // Mirrors the f64 values to f32, points the row tables into both, and
  // derives both bound, tile and line tables the way the engine does at
  // open.
  void Finish() {
    values_f32.clear();
    for (double v : values) values_f32.push_back(static_cast<float>(v));
    rows.clear();
    rows_f32.clear();
    for (int64_t c = 0; c < kClusters; ++c) {
      rows.push_back(values.data() + c * num_items);
      rows_f32.push_back(values_f32.data() + c * num_items);
    }
    ASSERT_TRUE(
        serving::BuildBlockBounds(View(false), &block_max, &line_max).ok());
    ASSERT_TRUE(
        serving::BuildBlockBounds(View(true), &block_max_f32, &line_max_f32)
            .ok());
    serving::BuildTileBounds(View(false), &tile_max);
    serving::BuildTileBounds(View(true), &tile_max_f32);
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

// The global-average row is derived on first use, as the engine does, so
// calls without an isolated user skip its O(C·I) pass.
Served Reconstruct(const Fixture& f, bool f32,
                   const std::vector<graph::NodeId>& batch, int64_t top_n) {
  const serving::ReleaseView view = f.View(f32);
  std::once_flag once;
  std::vector<double> global;
  Served out;
  Result<serving::ReconstructCounts> counts = serving::ReconstructTopN(
      view,
      [&f](graph::NodeId u) -> const std::vector<WorkloadEntry>& {
        return f.workload[static_cast<size_t>(u)];
      },
      [&]() -> const std::vector<double>& {
        std::call_once(
            once, [&] { global = serving::GlobalAverageUtilities(view); });
        return global;
      },
      batch, top_n, &out.lists, &out.degradation);
  EXPECT_TRUE(counts.ok());
  if (counts.ok()) out.counts = *counts;
  // A visited block sums at most its lines.
  EXPECT_LE(out.counts.lines_summed,
            kBoundBlockLines * out.counts.blocks_visited);
  return out;
}

// Runs ReconstructTopN on `batch` at every top-N edge (or at `top_ns`
// when given) and compares each user's list, utilities and degradation
// with the reference: `precomputed` (ReferenceUtilities per user, for the
// users of `batch`) when given, else computed here.
void ExpectMatchesReference(
    const Fixture& f, bool f32, const std::vector<graph::NodeId>& batch,
    const std::string& label, std::vector<int64_t> top_ns = {},
    const std::vector<ReferenceUser>* precomputed = nullptr) {
  if (top_ns.empty()) top_ns = TopNs(f.num_items);
  const std::vector<double> global =
      serving::GlobalAverageUtilities(f.View(f32));
  std::vector<bool> in_batch(kSocialUsers, false);
  for (graph::NodeId u : batch) in_batch[static_cast<size_t>(u)] = true;
  std::vector<ReferenceUser> computed;
  if (precomputed == nullptr) {
    computed.resize(kSocialUsers);
    for (size_t u = 0; u < computed.size(); ++u) {
      if (in_batch[u]) {
        computed[u] = ReferenceUtilities(f, f32, static_cast<graph::NodeId>(u));
      }
    }
  }
  const std::vector<ReferenceUser>& reference =
      precomputed == nullptr ? computed : *precomputed;
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
      if (!in_batch[u]) continue;
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

// A chunk is one group of at most kReconstructGroupUsers users. Batches
// of up to 256 users run in one-user chunks (DefaultChunkSize), so the
// batches around the group size never form groups of that size; 10,000
// users run in 40-user chunks, a full group each, and 10,241 is the
// first size whose default chunk (41) is longer than the group, the first
// that the cap on the chunk cuts.
TEST(ReconstructReferenceTest, BatchSizesAroundTheTileGroup) {
  // Two walk tiles, the second one item long.
  const Fixture f = MakeFixture(kWalkTileItems + 1, false, 11);
  ASSERT_EQ(DefaultChunkSize(10'000), kReconstructGroupUsers);
  ASSERT_EQ(DefaultChunkSize(10'241), kReconstructGroupUsers + 1);
  for (int64_t size :
       {int64_t{1}, kReconstructGroupUsers - 1, kReconstructGroupUsers,
        kReconstructGroupUsers + 1, int64_t{10'000}, int64_t{10'241}}) {
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
       {int64_t{7}, kWalkTileItems - 1, kWalkTileItems,
        kWalkTileItems + 1, kFlixsterItems}) {
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
  const Fixture f = MakeFixture(3 * kWalkTileItems + 5, true, 3);
  const std::vector<graph::NodeId> batch = MakeBatch(500, 9);
  for (int64_t threads : {1, 2, 4}) {
    ScopedThreadCount scoped(threads);
    ExpectMatchesReference(f, false, batch,
                           "threads=" + std::to_string(threads));
  }
}

TEST(ReconstructReferenceTest, SingleUsersCoverEveryDegradation) {
  const Fixture f = MakeFixture(kWalkTileItems + 1, true, 21);
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
  const Fixture f = MakeFixture(kWalkTileItems + 1, false, 31);
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

// One user, 1, whose two neighbours sit in clusters 0 and 1 with weight
// 1 each, over a release of `num_blocks` blocks. Cluster 0's row is -1
// and cluster 1's is 0 except at the items set in `cells0` / `cells1`,
// so the user's utility is exactly cluster 0's value plus cluster 1's.
Fixture MakeOneUserFixture(
    int64_t num_blocks, const std::vector<std::pair<int64_t, double>>& cells0,
    const std::vector<std::pair<int64_t, double>>& cells1 = {}) {
  Fixture f;
  f.num_items = num_blocks * kBoundBlockItems;
  f.values.assign(static_cast<size_t>(kClusters * f.num_items), 0.0);
  std::fill(f.values.begin(), f.values.begin() + f.num_items, -1.0);
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
  f.workload[1] = {{kClusters, 1.0}, {kClusters + 1, 1.0}};  // clusters 0, 1
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
    // Block 39 is summed whole (the list is empty), block 0 only its
    // first line, whose bound equals x's utility.
    EXPECT_EQ(two.counts.lines_summed, kBoundBlockLines + 1);
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, {1},
                             f32 ? "best-first f32" : "best-first");
    }
  }
  // The same within one block: block 0 holds y and w, both equal to x,
  // in its lines 1 and 2, whose bounds equal x's utility while lines 0
  // and 3 are below it. Both live lines are summed, y enters on its lower
  // id and w, equal to y with a higher id, does not.
  {
    const int64_t z = item(39, 5), x = item(39, 7);
    const int64_t y = item(0, kBoundLineItems + 1);
    const int64_t w = item(0, 2 * kBoundLineItems + 6);
    const Fixture f =
        MakeOneUserFixture(40, {{z, 3.0}, {x, 1.0}, {y, 1.0}, {w, 1.0}});
    const Served two = Reconstruct(f, false, {1}, 2);
    EXPECT_EQ(two.lists[0], (core::RecommendationList{{z, 3.0}, {y, 1.0}}));
    EXPECT_EQ(two.counts.blocks_visited, 2);
    EXPECT_EQ(two.counts.lines_summed, kBoundBlockLines + 2);
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, {1},
                             f32 ? "lines of a block f32" : "lines of a block");
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
    // Blocks 59 and 58 are summed whole (the list is empty, then its
    // worst kept utility is -1.0, which every line reaches); in the decoy
    // only a's line can reach x's utility, and in block 0 only y's.
    EXPECT_EQ(three.counts.lines_summed, 2 * kBoundBlockLines + 1 + 1);
    for (bool f32 : {false, true}) {
      ExpectMatchesReference(f, f32, {1}, f32 ? "walk f32" : "walk");
    }
  }
}

// A visited block with exactly one live line, in its middle. One user
// (MakeOneUserFixture) over 60 blocks (budget 3) at top-3, so best-first
// runs. Block 20 (bound 3.0) fills the list with a, b and c, each 2.0,
// and sums all its lines, as the list is empty. Block 7 (bound 2.75)
// comes next. Its line 0 holds d (1.5 from cluster 0) and its line 2
// holds e (0.75 from cluster 1), so their bounds, 1.5 and -0.25, and
// line 3's -1.0 are below 2.0. Its line 1 holds p (2.0 + 0.25) and q
// (2.0), so its bound is 2.25. Only line 1 is summed: p enters, and q,
// equal to a and b with a lower id, displaces b.
TEST(ReconstructLineBoundTest, OneLiveLineInTheMiddleOfAVisitedBlock) {
  auto item = [](int64_t block, int64_t offset) {
    return block * kBoundBlockItems + offset;
  };
  const int64_t a = item(20, 1), b = item(20, 12), c = item(20, 30);
  const int64_t d = item(7, 2);                        // line 0
  const int64_t p = item(7, kBoundLineItems + 3);      // line 1
  const int64_t q = item(7, kBoundLineItems + 6);      // line 1
  const int64_t e = item(7, 2 * kBoundLineItems + 4);  // line 2
  ASSERT_EQ(Budget(60 * kBoundBlockItems), 3);
  const Fixture f = MakeOneUserFixture(
      60, {{a, 3.0}, {b, 3.0}, {c, 3.0}, {d, 1.5}, {p, 2.0}, {q, 2.0}},
      {{a, -1.0}, {b, -1.0}, {c, -1.0}, {p, 0.25}, {e, 0.75}});
  for (bool f32 : {false, true}) {
    const std::string label = f32 ? "f32" : "f64";
    const serving::ReleaseView view = f.View(f32);
    ASSERT_EQ(view.BlockMaxRow(0)[7] + view.BlockMaxRow(1)[7], 2.75);
    const double expected[kBoundBlockLines] = {1.5, 2.25, -0.25, -1.0};
    for (int64_t l = 0; l < kBoundBlockLines; ++l) {
      const int64_t line = 7 * kBoundBlockLines + l;
      EXPECT_EQ(static_cast<double>(view.LineMaxRow(0)[line]) +
                    static_cast<double>(view.LineMaxRow(1)[line]),
                expected[l])
          << label << " line " << l;
    }
    const Served three = Reconstruct(f, f32, {1}, 3);
    EXPECT_EQ(three.lists[0],
              (core::RecommendationList{{p, 2.25}, {q, 2.0}, {a, 2.0}}))
        << label;
    EXPECT_EQ(three.counts.blocks_visited, 2) << label;
    EXPECT_EQ(three.counts.lines_summed, kBoundBlockLines + 1) << label;
    ExpectMatchesReference(f, f32, {1}, label, {1, 2, 3, 10});
  }
}

// The bound table holds, per cluster and block, the largest value of the
// table reconstruction reads: the f64 rows, or the f32 mirror widened.
// The two differ wherever quantization rounded a block's maximum, so a
// bound taken from the wrong width could undercut an f32 utility.
TEST(ReconstructPruningTest, BlockBoundsReadTheRowsReconstructionReads) {
  const Fixture f = MakeFixture(kWalkTileItems + 45, false, 51);
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

// RoundUpToFloat is the least float ≥ x: exact floats stay, anything
// between two floats goes to the upper one, and past the float range it
// is +inf above and -FLT_MAX below, never a cast out of range.
TEST(ReconstructLineBoundTest, RoundUpToFloatIsTheLeastFloatAtOrAbove) {
  using serving::RoundUpToFloat;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (float exact : {0.0f, 1.0f, -1.0f, 0.1f, -0.1f, 1.5e-42f, FLT_MAX,
                      -FLT_MAX, FLT_MIN, denorm}) {
    EXPECT_EQ(RoundUpToFloat(static_cast<double>(exact)), exact) << exact;
  }
  EXPECT_TRUE(std::signbit(RoundUpToFloat(-0.0)));
  // 1 + 2^-40 rounds to 1.0f to nearest, but 1.0f is below it.
  const double tiny = std::ldexp(1.0, -40);
  EXPECT_EQ(RoundUpToFloat(1.0 + tiny), std::nextafter(1.0f, 2.0f));
  EXPECT_EQ(RoundUpToFloat(1.0 + std::ldexp(1.0, -24)),
            std::nextafter(1.0f, 2.0f));
  EXPECT_EQ(RoundUpToFloat(-1.0 - tiny), -1.0f);
  EXPECT_EQ(RoundUpToFloat(-1.0 + tiny), std::nextafter(-1.0f, 0.0f));
  EXPECT_EQ(RoundUpToFloat(0.1), 0.1f);  // 0.1f is above 0.1
  EXPECT_EQ(RoundUpToFloat(-0.1), std::nextafter(-0.1f, 0.0f));
  EXPECT_EQ(RoundUpToFloat(1e-50), denorm);
  const float negative_tiny = RoundUpToFloat(-1e-50);
  EXPECT_EQ(negative_tiny, 0.0f);
  EXPECT_TRUE(std::signbit(negative_tiny));
  // Just past FLT_MAX, where a cast would round back to FLT_MAX.
  const double past = std::nextafter(static_cast<double>(FLT_MAX), 1e300);
  EXPECT_EQ(RoundUpToFloat(past), kInf);
  EXPECT_EQ(RoundUpToFloat(1e300), kInf);
  EXPECT_EQ(RoundUpToFloat(std::numeric_limits<double>::max()), kInf);
  EXPECT_EQ(RoundUpToFloat(-past), -FLT_MAX);
  EXPECT_EQ(RoundUpToFloat(-1e308), -FLT_MAX);
  // Every result is ≥ x and its float predecessor is < x.
  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int k = 0; k < 10'000; ++k) {
    const double x = std::ldexp(unit(rng), static_cast<int>(rng() % 300) - 150);
    const float up = RoundUpToFloat(x);
    EXPECT_GE(static_cast<double>(up), x) << x;
    EXPECT_LT(static_cast<double>(std::nextafter(up, -kInf)), x) << x;
  }
}

// The line table holds, per cluster and line, the line's largest value
// of the table reconstruction reads (f64 rows or the f32 mirror widened),
// rounded up to a float. At 48,756 items the last line is 4 items long.
TEST(ReconstructLineBoundTest, LineTableIsTheRoundedUpLineMaximum) {
  ASSERT_EQ(kBoundBlockLines * kBoundLineItems, kBoundBlockItems);
  ASSERT_EQ(kFlixsterItems - 6'094 * kBoundLineItems, 4);
  for (int64_t items : {int64_t{7}, kWalkTileItems + 45, kFlixsterItems}) {
    const Fixture f = MakeFixture(items, false, 57);
    for (bool f32 : {false, true}) {
      const std::string label =
          "items=" + std::to_string(items) + (f32 ? " f32" : " f64");
      const serving::ReleaseView view = f.View(f32);
      const int64_t num_lines = view.NumLines();
      ASSERT_EQ(num_lines, (items + kBoundLineItems - 1) / kBoundLineItems);
      const std::vector<float>& lines = f32 ? f.line_max_f32 : f.line_max;
      ASSERT_EQ(lines.size(), static_cast<size_t>(kClusters * num_lines))
          << label;
      int64_t moved = 0;
      for (int64_t c = 0; c < kClusters; ++c) {
        for (int64_t l = 0; l < num_lines; ++l) {
          double hi = -INFINITY;
          for (int64_t i = l * kBoundLineItems;
               i < std::min(items, (l + 1) * kBoundLineItems); ++i) {
            const auto cell = static_cast<size_t>(c * items + i);
            hi = std::max(hi, f32 ? static_cast<double>(f.values_f32[cell])
                                  : f.values[cell]);
          }
          const float bound = view.LineMaxRow(c)[l];
          EXPECT_EQ(bound, serving::RoundUpToFloat(hi))
              << label << " c=" << c << " l=" << l;
          EXPECT_GE(static_cast<double>(bound), hi);
          if (static_cast<double>(bound) != hi) ++moved;
        }
      }
      // The f64 maxima are rarely floats, so rounding moves them; the f32
      // mirror's are floats already.
      if (f32) {
        EXPECT_EQ(moved, 0) << label;
      } else {
        EXPECT_GT(moved, 0) << label;
      }
    }
  }
}

// The tile table holds, per cluster and tile, the largest bound-table
// value over the tile's blocks, the last tile short when the blocks do
// not fill it.
TEST(ReconstructPruningTest, TileTableIsTheBlockwiseMaximumOfTheBoundTable) {
  for (int64_t items : {int64_t{7}, kWalkTileItems,
                        3 * kWalkTileItems + 45, kFlixsterItems}) {
    const Fixture f = MakeFixture(items, false, 53);
    for (bool f32 : {false, true}) {
      const serving::ReleaseView view = f.View(f32);
      const int64_t num_blocks = view.NumBlocks();
      const int64_t num_tiles = view.NumTiles();
      ASSERT_EQ(num_tiles, (items + kWalkTileItems - 1) /
                               kWalkTileItems);
      const std::vector<double>& tiles = f32 ? f.tile_max_f32 : f.tile_max;
      ASSERT_EQ(tiles.size(), static_cast<size_t>(kClusters * num_tiles));
      for (int64_t c = 0; c < kClusters; ++c) {
        for (int64_t t = 0; t < num_tiles; ++t) {
          double hi = -INFINITY;
          for (int64_t b = t * kBoundTileBlocks;
               b < std::min(num_blocks, (t + 1) * kBoundTileBlocks); ++b) {
            hi = std::max(hi, view.BlockMaxRow(c)[b]);
          }
          EXPECT_EQ(view.TileMaxRow(c)[t], hi)
              << "items=" << items << (f32 ? " f32" : " f64") << " c=" << c
              << " t=" << t;
        }
      }
    }
  }
}

// A non-finite released value fails the derivation, naming its table.
TEST(ReconstructPruningTest, NonFiniteValuesFailTheBoundDerivation) {
  Fixture f = MakeFixture(kWalkTileItems + 1, false, 61);
  std::vector<double> table;
  std::vector<float> lines;
  f.values[123] = NAN;
  Status f64 = serving::BuildBlockBounds(f.View(false), &table, &lines);
  EXPECT_EQ(f64.code(), StatusCode::kParseError);
  EXPECT_NE(f64.message().find("'noisy_table'"), std::string::npos)
      << f64.message();
  f.values[123] = 0.5;
  f.values_f32[77] = INFINITY;
  Status f32 = serving::BuildBlockBounds(f.View(true), &table, &lines);
  EXPECT_EQ(f32.code(), StatusCode::kParseError);
  EXPECT_NE(f32.message().find("'noisy_table_f32'"), std::string::npos)
      << f32.message();
}

// --------------------------------------------------- the full bound order

// The blocks one user sums, in order, when best-first extracts from the
// user's full bound row with std::max_element (the order before tile
// bounds), under ReconstructTopN's budget and stop rules, followed by the
// walk, block by block with the worst kept utility read before each,
// over the dense reference's utilities (`utilities` when given, else
// computed here). The lazy tile bounds must visit exactly these.
std::vector<int64_t> ReferenceVisitedBlocks(
    const Fixture& f, bool f32, graph::NodeId u, int64_t top_n,
    const std::vector<double>* utilities = nullptr) {
  std::vector<int64_t> visited;
  const serving::ReleaseView view = f.View(f32);
  const int64_t keep = std::clamp<int64_t>(top_n, 0, f.num_items);
  std::vector<int64_t> order;
  std::vector<double> weight(kClusters, 0.0);
  for (const WorkloadEntry& e : f.workload[static_cast<size_t>(u)]) {
    const int64_t c = f.cluster_of[static_cast<size_t>(e.user)];
    if (weight[static_cast<size_t>(c)] == 0.0) order.push_back(c);
    weight[static_cast<size_t>(c)] += e.score;
  }
  if (order.empty() || keep == 0) return visited;
  std::vector<double> scales;
  std::vector<const double*> bound_rows;
  for (int64_t c : order) {
    scales.push_back(weight[static_cast<size_t>(c)]);
    bound_rows.push_back(view.BlockMaxRow(c));
  }
  const int64_t num_blocks = view.NumBlocks();
  std::vector<double> ub(static_cast<size_t>(num_blocks), 0.0);
  kernels::AccumulateRowsScalar(bound_rows.data(), scales.data(),
                                static_cast<int64_t>(scales.size()),
                                num_blocks, ub.data());
  const std::vector<double> computed =
      utilities == nullptr ? ReferenceUtilities(f, f32, u).utilities
                           : std::vector<double>{};
  const std::vector<double>& utility =
      utilities == nullptr ? computed : *utilities;
  core::TopNAccumulator acc(keep);
  auto offer = [&](int64_t b) {
    for (int64_t i = b * kBoundBlockItems;
         i < std::min(f.num_items, (b + 1) * kBoundBlockItems); ++i) {
      const double v = utility[static_cast<size_t>(i)];
      if (!(v < acc.WorstKept())) acc.Offer(i, v);
    }
    visited.push_back(b);
  };
  // A block best-first sums reads -inf, below the full list it hands
  // the walk.
  const int64_t budget = Budget(f.num_items);
  if (keep <= budget) {
    for (;;) {
      const int64_t b = std::max_element(ub.begin(), ub.end()) - ub.begin();
      if (ub[static_cast<size_t>(b)] < acc.WorstKept()) return visited;
      if (static_cast<int64_t>(visited.size()) == budget) break;
      ub[static_cast<size_t>(b)] = -INFINITY;
      offer(b);
    }
  }
  for (int64_t b = 0; b < num_blocks; ++b) {
    if (!(ub[static_cast<size_t>(b)] < acc.WorstKept())) offer(b);
  }
  return visited;
}

// Every personalized one-user call at top-1, 10 and 50, f64 and f32, of
// users 0, stride, 2 × stride, ... visits as many blocks as the
// full-bound reference, and the lists of a batch of those users
// (isolated ones too) match the dense reference. Each user's dense
// reference is computed once per storage mode and serves both checks.
// When `last_block_visits` is given it counts the reference's top-10 f64
// visits to the release's last block over all of them. The stride keeps
// reconstruct_test inside its time limit under the thread sanitizer.
void ExpectVisitsMatchTheFullBoundOrder(const Fixture& f,
                                        const std::string& label,
                                        int64_t stride = 1,
                                        int64_t* last_block_visits = nullptr) {
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < kSocialUsers; u += stride) users.push_back(u);
  const int64_t last_block = f.View(false).NumBlocks() - 1;
  for (bool f32 : {false, true}) {
    std::vector<ReferenceUser> reference(kSocialUsers);
    for (graph::NodeId u : users) {
      reference[static_cast<size_t>(u)] = ReferenceUtilities(f, f32, u);
    }
    for (int64_t top_n : {1, 10, 50}) {
      for (graph::NodeId u : users) {
        if (f.workload[static_cast<size_t>(u)].empty()) continue;
        const Served one = Reconstruct(f, f32, {u}, top_n);
        const std::vector<int64_t> visited = ReferenceVisitedBlocks(
            f, f32, u, top_n, &reference[static_cast<size_t>(u)].utilities);
        ASSERT_EQ(one.counts.blocks_visited,
                  static_cast<int64_t>(visited.size()))
            << label << " top_n=" << top_n << (f32 ? " f32" : " f64")
            << " user " << u;
        if (last_block_visits != nullptr && !f32 && top_n == 10) {
          *last_block_visits +=
              std::count(visited.begin(), visited.end(), last_block);
        }
      }
    }
    ExpectMatchesReference(f, f32, users, label + (f32 ? " f32" : " f64"),
                           {1, 10, 50}, &reference);
  }
}

TEST(ReconstructTileBoundTest, StructuredReleaseVisitsTheFullBoundOrder) {
  const Fixture f = MakeStructuredFixture(kStructuredItems, 41);
  ExpectVisitsMatchTheFullBoundOrder(f, "structured", 4);
}

TEST(ReconstructTileBoundTest, UnstructuredReleaseVisitsTheFullBoundOrder) {
  const Fixture f = MakeFixture(kStructuredItems, false, 47);
  ExpectVisitsMatchTheFullBoundOrder(f, "unstructured", 4);
}

// 48,756 items: 1,524 blocks in 96 tiles, the last tile 4 blocks long and
// the last block 20 items long. Strong items sit in the last block for
// some clusters, so users visit both short ends.
TEST(ReconstructTileBoundTest, FlixsterShapeWithShortLastTileAndBlock) {
  Fixture f = MakeStructuredFixture(kFlixsterItems, 59);
  const serving::ReleaseView shape = f.View(false);
  ASSERT_EQ(shape.NumBlocks(), 1'524);
  ASSERT_EQ(shape.NumTiles(), 96);
  ASSERT_EQ(shape.NumBlocks() - 95 * kBoundTileBlocks, 4);
  ASSERT_EQ(kFlixsterItems - 1'523 * kBoundBlockItems, 20);
  for (int64_t c = 0; c < kClusters; c += 2) {
    f.values[static_cast<size_t>(c * kFlixsterItems + kFlixsterItems - 1 -
                                 c)] = 9.0 + static_cast<double>(c);
  }
  f.Finish();
  int64_t last_block_visits = 0;
  ExpectVisitsMatchTheFullBoundOrder(f, "48756 items", 6, &last_block_visits);
  EXPECT_GT(last_block_visits, 0);
}

// One user over 8 tiles of 16 blocks (budget 6 blocks), two neighbours
// in clusters 0 and 1 (MakeOneUserFixture). At top-1 the strong item of
// tile 5 fills the list and every other tile's bound is below it, so
// best-first expands that one tile and sums one block.
TEST(ReconstructTileBoundTest, OneUserExpandsOnlyTheTileItNeeds) {
  constexpr int64_t kTiles = 8;
  const int64_t num_blocks = kTiles * kBoundTileBlocks;
  ASSERT_EQ(Budget(num_blocks * kBoundBlockItems), 6);
  auto item = [](int64_t tile, int64_t block, int64_t offset) {
    return (tile * kBoundTileBlocks + block) * kBoundBlockItems + offset;
  };
  const Fixture f = MakeOneUserFixture(num_blocks, {{item(5, 3, 7), 4.0}});
  const Served one = Reconstruct(f, false, {1}, 1);
  EXPECT_EQ(one.counts.tiles_expanded, 1);
  EXPECT_EQ(one.counts.blocks_visited, 1);
  EXPECT_EQ(one.lists[0], (core::RecommendationList{{item(5, 3, 7), 4.0}}));
  for (bool f32 : {false, true}) {
    ExpectMatchesReference(f, f32, {1}, f32 ? "f32" : "f64", {1, 2, 10});
    EXPECT_EQ(Reconstruct(f, f32, {1}, 1).counts.blocks_visited,
              static_cast<int64_t>(
                  ReferenceVisitedBlocks(f, f32, 1, 1).size()));
  }
}

// A tile bound equal to a block bound of another tile, both 3.0. The
// decoy tile's bound adds cluster 0's maximum (1.0, block 2) to cluster
// 1's (2.0, block 11), so its block bounds are only 1.0 and 2.0; tile 4
// holds an item of utility 3.0 whose block bound is 3.0. Below tile 4 the
// decoy wins the tie and is expanded first; above it, tile 4 wins and its
// block comes out first. Either way blocks come out as from the full
// bound row.
TEST(ReconstructTileBoundTest, TileBoundTiesABlockBoundOfAnotherTile) {
  constexpr int64_t kTiles = 8;
  const int64_t num_blocks = kTiles * kBoundTileBlocks;
  auto item = [](int64_t tile, int64_t block, int64_t offset) {
    return (tile * kBoundTileBlocks + block) * kBoundBlockItems + offset;
  };
  for (int64_t decoy : {int64_t{1}, int64_t{6}}) {
    // Cluster 0 is -1 everywhere but at the cells set; cluster 1 is 0
    // everywhere but at the cells set.
    const int64_t a = item(decoy, 2, 5);
    const int64_t b = item(decoy, 11, 9);
    const int64_t x = item(4, 7, 3);
    const Fixture f = MakeOneUserFixture(
        num_blocks, {{a, 1.0}, {b, 0.0}, {x, 3.0}}, {{a, -0.5}, {b, 2.0}});
    const serving::ReleaseView view = f.View(false);
    const double tile_bound =
        view.TileMaxRow(0)[decoy] + view.TileMaxRow(1)[decoy];
    const double block_bound = view.BlockMaxRow(0)[x / kBoundBlockItems] +
                               view.BlockMaxRow(1)[x / kBoundBlockItems];
    ASSERT_EQ(tile_bound, 3.0);
    ASSERT_EQ(block_bound, 3.0);
    for (bool f32 : {false, true}) {
      const std::string label =
          "decoy tile " + std::to_string(decoy) + (f32 ? " f32" : " f64");
      ExpectMatchesReference(f, f32, {1}, label, {1, 2, 3, 10});
      for (int64_t top_n : {1, 2, 3, 10}) {
        EXPECT_EQ(Reconstruct(f, f32, {1}, top_n).counts.blocks_visited,
                  static_cast<int64_t>(
                      ReferenceVisitedBlocks(f, f32, 1, top_n).size()))
            << label << " top_n=" << top_n;
      }
    }
  }
}

}  // namespace
}  // namespace privrec
