// The A_R reconstruction step of Algorithm 1 (lines 8-20): the Cluster
// mechanism's one implementation, run by the ServingEngine's ClusterServe
// whether the model was adopted in memory (core::MakeRecommender,
// ServingEngine::FromModel) or loaded from a .pvram. There is exactly one
// FP accumulation order, one fallback rule, and one degradation policy,
// so every route to a release serves the same lists.
//
// The math itself lives one layer lower, in src/kernels/: the
// similarity-weighted row sum is kernels::AccumulateRows (cache-blocked,
// runtime-dispatched SIMD, bit-identical to its scalar reference) and the
// top-N cut is the dense selector kernels::DenseTopNOffer. This header
// only orchestrates: gather the touched rows and their weights per user,
// walk the items in blocks shared by a group of users, hand each block
// to the kernels, apply the fallback/degradation policy.
//
// Reconstruction is pure post-processing of the released noisy table — it
// never reads the preference graph — which is why this header lives in the
// serving layer and depends only on ids, lists, the kernels, and the
// parallel runtime.

#ifndef PRIVREC_ARTIFACT_RECONSTRUCT_H_
#define PRIVREC_ARTIFACT_RECONSTRUCT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/degradation.h"
#include "core/recommendation.h"
#include "graph/ids.h"
#include "kernels/accumulate.h"
#include "kernels/select.h"

namespace privrec::serving {

// A non-owning view of one A_w release: everything reconstruction needs,
// whether the backing storage is an owned model or a mapped artifact.
struct ReleaseView {
  const double* values = nullptr;        // row-major [cluster][item]
  // Optional per-cluster row table for releases whose rows are not one
  // contiguous block (sharded artifacts). When set it takes precedence
  // over `values`; when the storage IS contiguous the two describe the
  // same addresses, so reconstruction is bit-identical either way.
  const double* const* rows = nullptr;
  // Optional f32-quantized mirror of the same table (the artifact's
  // kNoisyTableF32 / kNoisyRowsF32 sections). When present it is
  // preferred for the per-user accumulation — halving row traffic — and
  // the fig2 sweep gates its NDCG cost. The f64 table is still required
  // (global average and fallback stay full-width).
  const float* values_f32 = nullptr;
  const float* const* rows_f32 = nullptr;
  const uint8_t* sanitized = nullptr;    // per cluster
  const int64_t* cluster_of = nullptr;   // per user node
  const int64_t* cluster_sizes = nullptr;  // per cluster
  int64_t num_clusters = 0;
  int64_t num_items = 0;
  int64_t num_users = 0;  // |U|, the social graph's node count

  const double* Row(int64_t c) const {
    return rows != nullptr ? rows[c] : values + c * num_items;
  }
  bool HasF32() const {
    return rows_f32 != nullptr || values_f32 != nullptr;
  }
  const float* RowF32(int64_t c) const {
    return rows_f32 != nullptr ? rows_f32[c] : values_f32 + c * num_items;
  }
};

// Global-average utilities, the fallback row for users with no similarity
// support: Σ_c |c|·ŵ_c^i / |U| re-weights the released cluster rows back
// into one population-level row. Pure post-processing of the same release,
// so serving it costs no additional privacy. Always computed from the f64
// table: the fallback tier is cold, so it takes accuracy over row traffic.
inline std::vector<double> GlobalAverageUtilities(const ReleaseView& r) {
  const double num_users_d = static_cast<double>(r.num_users);
  std::vector<double> global(static_cast<size_t>(r.num_items), 0.0);
  for (int64_t c = 0; c < r.num_clusters; ++c) {
    double size = static_cast<double>(r.cluster_sizes[c]);
    if (size == 0.0) continue;
    const double* row = r.Row(c);
    for (int64_t i = 0; i < r.num_items; ++i) {
      global[static_cast<size_t>(i)] += size * row[i] / num_users_d;
    }
  }
  return global;
}

// Tiling of ReconstructTopN. A chunk's users are cut into groups of
// kReconstructGroupUsers; the group walks the items in blocks of
// kernels::kAccumulateBlockItems (the kernel's own cache block), and
// every user of the group reconstructs the block before the group moves
// on. The group thus shares the block's slices of the released rows (at
// most num_clusters × block), which can stay cache-resident across its
// users instead of streaming from memory for each one. Group and block
// size come from one sweep at the Flixster shape (DESIGN.md §5i).
inline constexpr int64_t kReconstructGroupUsers = 40;

// Per-user reconstruction, parallel over fixed chunks of the request batch.
// `row_of(u)` yields u's sparse similarity row as a range of entries with
// `.user` / `.score` members (the artifact's WorkloadEntry when serving).
// `global_fn()` returns the GlobalAverageUtilities row for the same view;
// it is only invoked for isolated users, so callers that cache the row
// lazily (the serving engine, which skips the O(C·I) pass across swap
// storms) never pay for it on the personalized path. It must be safe to
// call from concurrent chunks. Lists and diagnostics are written to their
// slots in `lists` / `degradation` (resized here); the return value is
// the number of degraded users, folded in chunk order.
//
// Each user's utilities are summed over its touched rows in its own
// first-touch order, one block at a time, and each block is offered to
// the user's running top-N (kernels::DenseTopNOffer, whose heap is the
// user's output list) while it is still in L1. Per element the add order
// is the untiled one, and the selector is exact under (utility desc,
// item asc), so the lists do not depend on the tiling, the chunking, the
// thread count or the dispatch level. A one-user chunk is a group of
// one. Per-thread scratch is one block of utilities plus the group's
// touched rows and weights (group × num_clusters at most): bounded by
// the constants above, not by the batch size or top_n.
template <typename RowOf, typename GlobalFn>
Result<int64_t> ReconstructTopN(const ReleaseView& release, RowOf&& row_of,
                                GlobalFn&& global_fn,
                                const std::vector<graph::NodeId>& users,
                                int64_t top_n,
                                std::vector<core::RecommendationList>* lists,
                                std::vector<core::DegradationInfo>* degradation) {
  const int64_t num_clusters = release.num_clusters;
  const int64_t num_items = release.num_items;
  const bool use_f32 = release.HasF32();
  const auto keep = static_cast<size_t>(
      std::clamp<int64_t>(top_n, 0, num_items));
  lists->resize(users.size());
  degradation->resize(users.size());
  return ParallelReduce(
      static_cast<int64_t>(users.size()), int64_t{0},
      [&](int64_t, int64_t begin, int64_t end) {
        // Worker-local scratch, fully rewritten per group (sim_sum is
        // re-zeroed through the touched list), so results do not depend
        // on which chunks this worker ran before.
        thread_local std::vector<double> sim_sum;
        thread_local std::vector<int64_t> touched;
        // The group's touched rows and weights, user after user; user j
        // of the group owns [row_begin[j], row_begin[j + 1]).
        thread_local std::vector<double> scales;
        thread_local std::vector<const double*> rows;
        thread_local std::vector<const float*> rows_f32;
        thread_local std::vector<size_t> row_begin;
        thread_local std::vector<int64_t> personalized;  // batch index
        thread_local std::vector<const double*> slice;
        thread_local std::vector<const float*> slice_f32;
        thread_local std::vector<double> block;
        if (sim_sum.size() < static_cast<size_t>(num_clusters)) {
          sim_sum.assign(static_cast<size_t>(num_clusters), 0.0);
        }
        block.resize(static_cast<size_t>(kernels::kAccumulateBlockItems));
        int64_t chunk_degraded = 0;
        for (int64_t g = begin; g < end; g += kReconstructGroupUsers) {
          const int64_t group_end = std::min(end, g + kReconstructGroupUsers);
          // Fold every user of the group: its similarity row down to one
          // weight per touched cluster, in first-touch order.
          scales.clear();
          rows.clear();
          rows_f32.clear();
          row_begin.assign(1, 0);
          personalized.clear();
          for (int64_t k = g; k < group_end; ++k) {
            graph::NodeId u = users[static_cast<size_t>(k)];
            touched.clear();
            for (const auto& e : row_of(u)) {
              int64_t c = release.cluster_of[e.user];
              if (sim_sum[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
              sim_sum[static_cast<size_t>(c)] += e.score;
            }
            core::DegradationInfo info;
            core::RecommendationList& list = (*lists)[static_cast<size_t>(k)];
            if (touched.empty()) {
              // No similarity support: the reconstruction formula would
              // rank every item 0. Serve the global-average ranking
              // instead of an arbitrary tie-break.
              info.reason = core::DegradationReason::kIsolatedUser;
              list = core::TopNFromDense(global_fn(), top_n);
            } else {
              for (int64_t c : touched) {
                scales.push_back(sim_sum[static_cast<size_t>(c)]);
                if (release.sanitized[static_cast<size_t>(c)]) {
                  info.reason = core::DegradationReason::kNonFiniteSanitized;
                }
                if (use_f32) {
                  rows_f32.push_back(release.RowF32(c));
                } else {
                  rows.push_back(release.Row(c));
                }
                sim_sum[static_cast<size_t>(c)] = 0.0;
              }
              row_begin.push_back(scales.size());
              personalized.push_back(k);
              list.clear();
              list.reserve(keep);
            }
            if (info.degraded()) ++chunk_degraded;
            (*degradation)[static_cast<size_t>(k)] = info;
          }
          // Walk the items once for the whole group.
          for (int64_t b = 0; b < num_items;
               b += kernels::kAccumulateBlockItems) {
            const int64_t len =
                std::min(kernels::kAccumulateBlockItems, num_items - b);
            for (size_t j = 0; j < personalized.size(); ++j) {
              const size_t first = row_begin[j];
              const auto num_rows =
                  static_cast<int64_t>(row_begin[j + 1] - first);
              std::fill(block.begin(), block.begin() + len, 0.0);
              if (use_f32) {
                slice_f32.clear();
                for (size_t r = first; r < row_begin[j + 1]; ++r) {
                  slice_f32.push_back(rows_f32[r] + b);
                }
                kernels::AccumulateRowsF32(slice_f32.data(),
                                           scales.data() + first, num_rows,
                                           len, block.data());
              } else {
                slice.clear();
                for (size_t r = first; r < row_begin[j + 1]; ++r) {
                  slice.push_back(rows[r] + b);
                }
                kernels::AccumulateRows(slice.data(), scales.data() + first,
                                        num_rows, len, block.data());
              }
              kernels::DenseTopNOffer(
                  block.data(), b, len, top_n,
                  &(*lists)[static_cast<size_t>(personalized[j])]);
            }
          }
          for (int64_t k : personalized) {
            kernels::DenseTopNFinish(&(*lists)[static_cast<size_t>(k)]);
          }
        }
        return chunk_degraded;
      },
      [](int64_t& acc, int64_t part) { acc += part; });
}

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_RECONSTRUCT_H_
