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
// decide which item blocks can still reach the user's list, hand those
// blocks to the kernels, apply the fallback/degradation policy.
//
// Most blocks cannot reach a top-10 or top-50 list, and a per-block upper
// bound proves it without summing them. The bound table (the largest
// released value per cluster and kBoundBlockItems-item block) is derived
// from the public release, so it is post-processing and costs no ε. A
// user's bound for a block is its cluster weights summed over that table
// by the same kernel, in the same row order, as its utilities; because
// the weights are ≥ 0 and IEEE rounding is monotone, it is at least every
// utility in the block, bit for bit. Each user first visits blocks in
// descending bound ("best-first") and stops as soon as no unvisited block
// can beat its list. A user still unfinished after a budget of blocks
// joins the group's ascending walk over the items, which skips every
// block whose bound falls below the list it already holds. Every visited
// block runs the unpruned kernel, so every kept utility has the unpruned
// bits, and both selectors are exact under (utility desc, item asc):
// lists, utilities and degradation are identical to the dense walk's.
//
// Reconstruction is pure post-processing of the released noisy table — it
// never reads the preference graph — which is why this header lives in the
// serving layer and depends only on ids, lists, the kernels, and the
// parallel runtime.

#ifndef PRIVREC_ARTIFACT_RECONSTRUCT_H_
#define PRIVREC_ARTIFACT_RECONSTRUCT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/degradation.h"
#include "core/recommendation.h"
#include "graph/ids.h"
#include "kernels/accumulate.h"
#include "kernels/select.h"

namespace privrec::serving {

// Items per block of the bound table. Smaller blocks bound tighter but
// make the per-user bound row longer (I / block entries, each summed over
// the user's rows); DESIGN.md §5i records the sweep that chose 32.
inline constexpr int64_t kBoundBlockItems = 32;

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
  // The bound table, row-major [cluster][block] over NumBlocks() blocks:
  // the largest value reconstruction reads from the cluster's row in the
  // block's items (from the f32 mirror, widened, when there is one).
  // Filled by BuildBlockBounds; ReconstructTopN requires it.
  const double* block_max = nullptr;
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
  int64_t NumBlocks() const {
    return (num_items + kBoundBlockItems - 1) / kBoundBlockItems;
  }
  const double* BlockMaxRow(int64_t c) const {
    return block_max + c * NumBlocks();
  }
};

// Derives the bound table of `release` into `block_max` (the layout of
// ReleaseView::block_max), checking on the way that every released value
// is finite: a non-finite value is kParseError naming its section,
// 'noisy_table' or 'noisy_table_f32'. Both tables are checked; the bound
// reads the one reconstruction reads. The engine runs it once per open,
// over the same unified views whatever the storage mode.
inline Status BuildBlockBounds(const ReleaseView& release,
                               std::vector<double>* block_max) {
  const int64_t num_blocks = release.NumBlocks();
  const bool use_f32 = release.HasF32();
  block_max->resize(static_cast<size_t>(release.num_clusters * num_blocks));
  auto non_finite = [](const char* section) {
    return Status::ParseError("artifact section '" + std::string(section) +
                              "' invalid: non-finite released value");
  };
  for (int64_t c = 0; c < release.num_clusters; ++c) {
    const double* row = release.Row(c);
    const float* row_f32 = use_f32 ? release.RowF32(c) : nullptr;
    double* out = block_max->data() + c * num_blocks;
    for (int64_t b = 0; b < num_blocks; ++b) {
      const int64_t begin = b * kBoundBlockItems;
      const int64_t end = std::min(release.num_items, begin + kBoundBlockItems);
      double hi = -std::numeric_limits<double>::infinity();
      for (int64_t i = begin; i < end; ++i) {
        if (!std::isfinite(row[i])) return non_finite("noisy_table");
        hi = std::max(hi, row[i]);
      }
      if (use_f32) {
        hi = -std::numeric_limits<double>::infinity();
        for (int64_t i = begin; i < end; ++i) {
          if (!std::isfinite(row_f32[i])) return non_finite("noisy_table_f32");
          hi = std::max(hi, static_cast<double>(row_f32[i]));
        }
      }
      out[b] = hi;
    }
  }
  return Status::Ok();
}

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

// Tiling of the walk. A chunk's users are cut into groups of
// kReconstructGroupUsers; the group's walkers (the users best-first left
// unfinished) walk the items in tiles of kernels::kAccumulateBlockItems
// (the kernel's own cache block), and every walker takes its turn on the
// tile before the group moves on. The walkers thus share the tile's
// slices of the released rows (at most num_clusters × tile), which can
// stay cache-resident across them instead of streaming from memory for
// each one. Group and tile size come from one sweep at the Flixster shape
// (DESIGN.md §5i).
inline constexpr int64_t kReconstructGroupUsers = 40;

// Best-first's budget, in percent of the release's bound blocks (at least
// one block). A user whose list is not provably complete after this many
// blocks joins the walk, and at most this share of its blocks is summed
// twice. DESIGN.md §5i records the sweep that chose 5%.
inline constexpr int64_t kBestFirstBudgetPercent = 5;

// What one ReconstructTopN call did, folded over its chunks in order:
// the degraded users, and the bound blocks summed against the blocks
// there were, over the personalized (non-isolated) users. A walker's
// best-first blocks count as visited, so `blocks_visited` is the work
// done and can exceed `blocks_total` by the budget in the worst case.
struct ReconstructCounts {
  int64_t degraded = 0;
  int64_t blocks_visited = 0;
  int64_t blocks_total = 0;
};

// Per-user reconstruction, parallel over fixed chunks of the request batch.
// `row_of(u)` yields u's sparse similarity row as a range of entries with
// `.user` / `.score` members (the artifact's WorkloadEntry when serving);
// scores must be finite and ≥ 0, which the engine checks at open.
// `global_fn()` returns the GlobalAverageUtilities row for the same view;
// it is only invoked for isolated users, so callers that cache the row
// lazily (the serving engine, which skips the O(C·I) pass across swap
// storms) never pay for it on the personalized path. It must be safe to
// call from concurrent chunks. Lists and diagnostics are written to their
// slots in `lists` / `degradation` (resized here).
//
// Per user, one AccumulateRows pass over its bound-table rows gives the
// bound of every block. Best-first then offers whole blocks, highest
// bound first, to a core::TopNAccumulator (the full comparator: ids
// arrive out of order); it stops once the list is full and the next
// bound is strictly below the worst kept utility, because a lower-id
// item in an unseen block may still win a tie. Users it leaves
// unfinished, and every user when top_n exceeds its budget, are walkers.
// A walker drops its best-first list and walks ascending with the dense
// selector (kernels::DenseTopNOffer), skipping each block whose bound is
// below the larger of best-first's worst kept utility (when that list
// was full) and the walk's own; its one-compare admission stays exact
// because walk ids still ascend. Per element the add order is the unpruned one, so the
// lists do not depend on the pruning, the tiling, the chunking, the
// thread count or the dispatch level. A one-user chunk is a group of one.
// Per-thread scratch is one tile of utilities, the group's touched rows
// and weights (group × num_clusters at most) and the group's bound rows
// (group × I / kBoundBlockItems): bounded by the constants and the
// release shape, not by the batch size or top_n.
template <typename RowOf, typename GlobalFn>
Result<ReconstructCounts> ReconstructTopN(
    const ReleaseView& release, RowOf&& row_of, GlobalFn&& global_fn,
    const std::vector<graph::NodeId>& users, int64_t top_n,
    std::vector<core::RecommendationList>* lists,
    std::vector<core::DegradationInfo>* degradation) {
  const int64_t num_clusters = release.num_clusters;
  const int64_t num_items = release.num_items;
  const int64_t num_blocks = release.NumBlocks();
  const bool use_f32 = release.HasF32();
  const int64_t keep = std::clamp<int64_t>(top_n, 0, num_items);
  const int64_t budget =
      std::max<int64_t>(1, num_blocks * kBestFirstBudgetPercent / 100);
  // Bound blocks per walk tile; best-first's order keeps one maximum per
  // tile of blocks.
  constexpr int64_t kTileBlocks =
      kernels::kAccumulateBlockItems / kBoundBlockItems;
  const int64_t num_tiles = (num_blocks + kTileBlocks - 1) / kTileBlocks;
  // Best-first runs only when its budget has a block for every item of
  // the list: the top-N may sit in N different blocks, and with fewer
  // it seldom finishes and its blocks are summed twice (DESIGN.md §5i).
  // Otherwise the user goes straight to the walk.
  const bool best_first = keep > 0 && keep <= budget;
  constexpr double kNoFloor = -std::numeric_limits<double>::infinity();
  lists->resize(users.size());
  degradation->resize(users.size());
  return ParallelReduce(
      static_cast<int64_t>(users.size()), ReconstructCounts{},
      [&](int64_t, int64_t begin, int64_t end) {
        // Worker-local scratch, fully rewritten per group (sim_sum is
        // re-zeroed through the touched list), so results do not depend
        // on which chunks this worker ran before.
        thread_local std::vector<double> sim_sum;
        thread_local std::vector<int64_t> touched;
        // The group's touched rows and weights, user after user; user j
        // of the group owns [row_begin[j], row_begin[j + 1]), and its
        // bound row is bounds[j * num_blocks, (j + 1) * num_blocks).
        thread_local std::vector<double> scales;
        thread_local std::vector<const double*> rows;
        thread_local std::vector<const float*> rows_f32;
        thread_local std::vector<const double*> bound_rows;
        thread_local std::vector<size_t> row_begin;
        thread_local std::vector<double> bounds;
        // Best-first's unvisited bounds (-inf once visited), and their
        // maximum per tile of blocks.
        thread_local std::vector<double> unvisited;
        thread_local std::vector<double> tile_max;
        // The group's walkers: slot j, batch index, and the worst utility
        // best-first kept (kNoFloor if its list was not full).
        struct Walker {
          size_t slot;
          int64_t index;
          double floor;
        };
        thread_local std::vector<Walker> walkers;
        thread_local std::vector<const double*> slice;
        thread_local std::vector<const float*> slice_f32;
        thread_local std::vector<double> block;
        if (sim_sum.size() < static_cast<size_t>(num_clusters)) {
          sim_sum.assign(static_cast<size_t>(num_clusters), 0.0);
        }
        block.resize(static_cast<size_t>(kernels::kAccumulateBlockItems));
        ReconstructCounts counts;
        // Sums items [first, first + count) of group user j into block.
        auto sum_items = [&](size_t j, int64_t first, int64_t count) {
          const size_t row0 = row_begin[j];
          const auto num_rows = static_cast<int64_t>(row_begin[j + 1] - row0);
          std::fill(block.begin(), block.begin() + count, 0.0);
          if (use_f32) {
            slice_f32.clear();
            for (size_t r = row0; r < row_begin[j + 1]; ++r) {
              slice_f32.push_back(rows_f32[r] + first);
            }
            kernels::AccumulateRowsF32(slice_f32.data(), scales.data() + row0,
                                       num_rows, count, block.data());
          } else {
            slice.clear();
            for (size_t r = row0; r < row_begin[j + 1]; ++r) {
              slice.push_back(rows[r] + first);
            }
            kernels::AccumulateRows(slice.data(), scales.data() + row0,
                                    num_rows, count, block.data());
          }
        };
        for (int64_t g = begin; g < end; g += kReconstructGroupUsers) {
          const int64_t group_end = std::min(end, g + kReconstructGroupUsers);
          // Fold every user of the group: its similarity row down to one
          // weight per touched cluster, in first-touch order.
          scales.clear();
          rows.clear();
          rows_f32.clear();
          bound_rows.clear();
          row_begin.assign(1, 0);
          walkers.clear();
          bounds.resize(static_cast<size_t>((group_end - g) * num_blocks));
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
            list.clear();
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
                bound_rows.push_back(release.BlockMaxRow(c));
                sim_sum[static_cast<size_t>(c)] = 0.0;
              }
              row_begin.push_back(scales.size());
              counts.blocks_total += num_blocks;
            }
            if (info.degraded()) ++counts.degraded;
            (*degradation)[static_cast<size_t>(k)] = info;
            if (touched.empty() || keep == 0) continue;

            // Every block's bound, then best-first over the highest.
            const size_t j = row_begin.size() - 2;
            double* ub = bounds.data() + j * static_cast<size_t>(num_blocks);
            const size_t row0 = row_begin[j];
            std::fill(ub, ub + num_blocks, 0.0);
            kernels::AccumulateRows(
                bound_rows.data() + row0, scales.data() + row0,
                static_cast<int64_t>(row_begin[j + 1] - row0), num_blocks,
                ub);
            double floor = kNoFloor;
            if (best_first) {
              // Blocks come out in descending bound, lower id first on
              // ties, extracted lazily because most lists finish within
              // a few: each extraction scans the tile maxima and one tile.
              unvisited.assign(ub, ub + num_blocks);
              tile_max.resize(static_cast<size_t>(num_tiles));
              auto tile_range = [&](int64_t t) {
                return std::pair(
                    unvisited.begin() + t * kTileBlocks,
                    unvisited.begin() +
                        std::min(num_blocks, (t + 1) * kTileBlocks));
              };
              for (int64_t t = 0; t < num_tiles; ++t) {
                auto [lo, hi] = tile_range(t);
                tile_max[static_cast<size_t>(t)] = *std::max_element(lo, hi);
              }
              auto next_block = [&] {
                const auto t = std::max_element(tile_max.begin(),
                                                tile_max.end()) -
                               tile_max.begin();
                auto [lo, hi] = tile_range(t);
                const auto top = std::max_element(lo, hi);
                *top = kNoFloor;
                tile_max[static_cast<size_t>(t)] = *std::max_element(lo, hi);
                return top - unvisited.begin();
              };
              core::TopNAccumulator acc(keep);
              int64_t visited = 0;
              bool finished = false;
              for (;;) {
                if (visited == num_blocks) {
                  finished = true;
                  break;
                }
                const int64_t b = next_block();
                if (ub[b] < acc.WorstKept()) {
                  finished = true;
                  break;
                }
                if (visited == budget) break;
                const int64_t first = b * kBoundBlockItems;
                const int64_t len =
                    std::min(kBoundBlockItems, num_items - first);
                sum_items(j, first, len);
                for (int64_t i = 0; i < len; ++i) {
                  const double v = block[static_cast<size_t>(i)];
                  if (!(v < acc.WorstKept())) acc.Offer(first + i, v);
                }
                ++visited;
              }
              counts.blocks_visited += visited;
              if (finished) {
                list = acc.Take();
                continue;
              }
              floor = acc.WorstKept();
            }
            walkers.push_back({j, k, floor});
            list.reserve(static_cast<size_t>(keep));
          }
          if (walkers.empty()) continue;
          // Walk the items once for the group's walkers.
          for (int64_t t = 0; t < num_items;
               t += kernels::kAccumulateBlockItems) {
            const int64_t tile_end =
                std::min(num_items, t + kernels::kAccumulateBlockItems);
            for (const Walker& w : walkers) {
              const double* ub =
                  bounds.data() + w.slot * static_cast<size_t>(num_blocks);
              core::RecommendationList& list =
                  (*lists)[static_cast<size_t>(w.index)];
              for (int64_t first = t; first < tile_end;) {
                const double floor =
                    static_cast<int64_t>(list.size()) == keep
                        ? std::max(w.floor, list.front().utility)
                        : w.floor;
                // Tiles are whole bound blocks, so `first` starts one.
                int64_t last = first;
                while (last < tile_end &&
                       !(ub[last / kBoundBlockItems] < floor)) {
                  last = std::min(tile_end, last + kBoundBlockItems);
                }
                if (last == first) {
                  first += kBoundBlockItems;
                  continue;
                }
                sum_items(w.slot, first, last - first);
                kernels::DenseTopNOffer(block.data(), first, last - first,
                                        keep, &list);
                counts.blocks_visited +=
                    (last - first + kBoundBlockItems - 1) / kBoundBlockItems;
                first = last;
              }
            }
          }
          for (const Walker& w : walkers) {
            kernels::DenseTopNFinish(&(*lists)[static_cast<size_t>(w.index)]);
          }
        }
        return counts;
      },
      [](ReconstructCounts& acc, const ReconstructCounts& part) {
        acc.degraded += part.degraded;
        acc.blocks_visited += part.blocks_visited;
        acc.blocks_total += part.blocks_total;
      });
}

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_RECONSTRUCT_H_
