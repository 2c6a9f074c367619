// Bit-identity of the tiled reconstruction (serving::ReconstructTopN)
// against a reference that does not go through it: per user, the
// similarity row folded to one weight per touched cluster in first-touch
// order, the scalar AccumulateRows over the full rows in that order, and
// SelectTopNInPlace on materialized (item, utility) pairs. Every route to
// the Cluster mechanism runs ReconstructTopN, so comparing the routes with
// each other cannot catch a tiling bug; this test can. Lists, utilities
// and degradation reasons must match exactly across batch sizes around
// the tile group, item counts around the tile block, every top-N edge,
// f64 and f32 rows, and a tie-heavy table, with isolated users and a
// sanitized cluster in every release.

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

  serving::ReleaseView View(bool f32) const {
    serving::ReleaseView view;
    view.values = values.data();
    view.values_f32 = f32 ? values_f32.data() : nullptr;
    view.sanitized = sanitized.data();
    view.cluster_of = cluster_of.data();
    view.cluster_sizes = cluster_sizes.data();
    view.num_clusters = kClusters;
    view.num_items = num_items;
    view.num_users = kSocialUsers;
    return view;
  }
};

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
  f.values_f32.reserve(f.values.size());
  for (double v : f.values) f.values_f32.push_back(static_cast<float>(v));
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

// Runs ReconstructTopN on `batch` at every top-N edge and compares each
// user's list, utilities and degradation with the reference.
void ExpectMatchesReference(const Fixture& f, bool f32,
                            const std::vector<graph::NodeId>& batch,
                            const std::string& label) {
  const serving::ReleaseView view = f.View(f32);
  const std::vector<double> global = serving::GlobalAverageUtilities(view);
  std::vector<ReferenceUser> reference(kSocialUsers);
  std::vector<bool> computed(kSocialUsers, false);
  for (graph::NodeId u : batch) {
    if (computed[static_cast<size_t>(u)]) continue;
    reference[static_cast<size_t>(u)] = ReferenceUtilities(f, f32, u);
    computed[static_cast<size_t>(u)] = true;
  }
  for (int64_t top_n : TopNs(f.num_items)) {
    std::vector<core::RecommendationList> lists;
    std::vector<core::DegradationInfo> degradation;
    Result<int64_t> degraded = serving::ReconstructTopN(
        view,
        [&f](graph::NodeId u) -> const std::vector<WorkloadEntry>& {
          return f.workload[static_cast<size_t>(u)];
        },
        [&global]() -> const std::vector<double>& { return global; }, batch,
        top_n, &lists, &degradation);
    ASSERT_TRUE(degraded.ok()) << label;
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
    EXPECT_EQ(*degraded, expected_degraded) << label << " top_n=" << top_n;
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

}  // namespace
}  // namespace privrec
