// The A_R reconstruction step of Algorithm 1 (lines 8-20): the Cluster
// mechanism's one implementation, run by the ServingEngine's ClusterServe
// whether the model was adopted in memory (core::MakeRecommender,
// ServingEngine::FromModel) or loaded from a .pvram. Either way the
// engine opens the release on one path and hands it over as the same
// ReleaseView: one row pointer per cluster. There is exactly one FP
// accumulation order, one fallback rule, and one degradation policy, so
// every route to a release serves the same lists.
//
// The math itself lives one layer lower, in src/kernels/: the
// similarity-weighted row sums are kernels::SumBlock (one block of items
// or of block bounds) and kernels::AccumulateRows (a user's tile bounds),
// runtime-dispatched SIMD, bit-identical to their scalar references, and
// best-first's block order comes from kernels::FirstArgMax. This header
// only orchestrates: gather the touched rows and their weights per user,
// decide which item blocks can still reach the user's list, hand those
// blocks to the kernels, keep each user's top-N in a
// core::TopNAccumulator, apply the fallback/degradation policy.
//
// Most blocks cannot reach a top-10 or top-50 list, and a per-block upper
// bound proves it without summing them. The bound table (the largest
// released value per cluster and kBoundBlockItems-item block) is derived
// from the public release, so it is post-processing and costs no ε. A
// user's bound for a block is its cluster weights summed over that table
// by the same add sequence, in the same row order, as its utilities;
// because the weights are ≥ 0 and IEEE rounding is monotone, it is at
// least every utility in the block, bit for bit. A coarser tile table
// (the largest bound-table value per cluster and walk tile of
// kBoundTileBlocks blocks) bounds the block bounds the same way, so a
// user's block bounds are summed one tile at a time, only for the tiles
// that can matter. A finer line table (each kBoundLineItems-item line's
// largest value, rounded up to a float) bounds each line of a block the
// same way, so a visited block sums only the lines that can still reach
// the list. Each user first visits blocks in descending bound
// ("best-first") and stops as soon as no unvisited block can beat its
// list. A user still unfinished after a budget of blocks joins the
// group's ascending walk over the items with the list it holds, and the
// walk skips every block best-first summed, every block whose bound
// falls below that list, and every tile whose bound does. Every visited
// block runs the unpruned sum over its lines that can still win, so
// every kept utility has the unpruned bits, and the accumulator is exact
// under (utility desc, item asc) whatever order the items come in:
// lists, utilities and degradation are identical to the dense walk's.
//
// Reconstruction is pure post-processing of the released noisy table — it
// never reads the preference graph — which is why this header lives in the
// serving layer and depends only on ids, lists, the kernels, and the
// parallel runtime.

#ifndef PRIVREC_ARTIFACT_RECONSTRUCT_H_
#define PRIVREC_ARTIFACT_RECONSTRUCT_H_

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
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

// Items per walk tile (512 doubles, 4 KiB): the unit the walk shares
// across a group's walkers (the tiling below) and the unit of the tile
// table.
inline constexpr int64_t kWalkTileItems = 512;

// Bound blocks per tile of the tile table: one walk tile, so the walk can
// skip a tile whole. A block and a tile of block bounds are each one
// SumBlock call.
inline constexpr int64_t kBoundTileBlocks = kWalkTileItems / kBoundBlockItems;

// Items per line of the line table: 8 doubles, one 64-byte line of a
// released row. A visited block sums its line bounds, then only the
// items from its first line that can still win to the end of its last.
inline constexpr int64_t kBoundLineItems = 8;
inline constexpr int64_t kBoundBlockLines = kBoundBlockItems / kBoundLineItems;

// The least float ≥ x, for finite x: above FLT_MAX that is +inf, below
// -FLT_MAX it is -FLT_MAX (a double outside the float range is never
// cast, which would be undefined). The float widens to a double ≥ x
// exactly, so a line bound taken from it dominates the line.
inline float RoundUpToFloat(double x) {
  if (x > FLT_MAX) return std::numeric_limits<float>::infinity();
  if (x < -FLT_MAX) return -FLT_MAX;
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

// A non-owning view of one A_w release: everything reconstruction needs,
// whether the backing storage is an owned model or a mapped artifact.
// The engine's open (ServingEngine::InitViews and BuildDerived) refuses
// a release with a non-finite value, a workload score that is not > 0,
// or a user whose served sums could overflow, so in a served view every
// weight is > 0 and every sum reconstruction forms is finite.
// ReconstructTopN relies on both and checks neither.
struct ReleaseView {
  // The released rows, one pointer per cluster (num_items values each).
  // The rows need not be one contiguous block: a sharded artifact keeps
  // each cluster range in its own file.
  const double* const* rows = nullptr;
  // Optional f32-quantized mirror of the same table (the artifact's
  // kNoisyRowsF32 sections), one row per cluster like `rows`. When
  // present it is preferred for the per-user accumulation — halving row
  // traffic — and the fig2 sweep gates its NDCG cost. The f64 rows are
  // still required (global average and fallback stay full-width).
  const float* const* rows_f32 = nullptr;
  // The bound table, row-major [cluster][block] over NumBlocks() blocks:
  // the largest value reconstruction reads from the cluster's row in the
  // block's items (from the f32 mirror, widened, when there is one).
  // Filled by BuildBlockBounds; ReconstructTopN requires it.
  const double* block_max = nullptr;
  // The tile table, row-major [cluster][tile] over NumTiles() tiles: the
  // largest block_max value of the cluster over the tile's
  // kBoundTileBlocks blocks. Filled by BuildTileBounds; ReconstructTopN
  // requires it.
  const double* tile_max = nullptr;
  // The line table, row-major [cluster][line] over NumLines() lines: the
  // largest value reconstruction reads from the cluster's row in the
  // line's kBoundLineItems items, rounded up to a float (RoundUpToFloat).
  // Filled by BuildBlockBounds; ReconstructTopN requires it.
  const float* line_max = nullptr;
  const uint8_t* sanitized = nullptr;    // per cluster
  const int64_t* cluster_of = nullptr;   // per user node
  const int64_t* cluster_sizes = nullptr;  // per cluster
  int64_t num_clusters = 0;
  int64_t num_items = 0;
  int64_t num_users = 0;  // |U|, the social graph's node count

  const double* Row(int64_t c) const { return rows[c]; }
  bool HasF32() const { return rows_f32 != nullptr; }
  const float* RowF32(int64_t c) const { return rows_f32[c]; }
  int64_t NumBlocks() const {
    return (num_items + kBoundBlockItems - 1) / kBoundBlockItems;
  }
  const double* BlockMaxRow(int64_t c) const {
    return block_max + c * NumBlocks();
  }
  int64_t NumTiles() const {
    return (NumBlocks() + kBoundTileBlocks - 1) / kBoundTileBlocks;
  }
  const double* TileMaxRow(int64_t c) const {
    return tile_max + c * NumTiles();
  }
  int64_t NumLines() const {
    return (num_items + kBoundLineItems - 1) / kBoundLineItems;
  }
  const float* LineMaxRow(int64_t c) const {
    return line_max + c * NumLines();
  }
};

// Derives the bound table of `release` into `block_max` and the line
// table into `line_max` (the layouts of ReleaseView::block_max and
// ReleaseView::line_max), checking on the way that every released value
// is finite: a non-finite value is kParseError naming its section,
// 'noisy_table' or 'noisy_table_f32'. Both tables are checked; the
// bounds read the one reconstruction reads. When `value_max` is given,
// the same pass leaves in it each cluster's largest |value| over both
// tables. The engine runs it once per open, over the same unified views
// whatever the storage mode.
inline Status BuildBlockBounds(const ReleaseView& release,
                               std::vector<double>* block_max,
                               std::vector<float>* line_max,
                               std::vector<double>* value_max = nullptr) {
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  const int64_t num_blocks = release.NumBlocks();
  const int64_t num_lines = release.NumLines();
  const bool use_f32 = release.HasF32();
  block_max->assign(static_cast<size_t>(release.num_clusters * num_blocks),
                    kNone);
  line_max->resize(static_cast<size_t>(release.num_clusters * num_lines));
  if (value_max != nullptr) {
    value_max->resize(static_cast<size_t>(release.num_clusters));
  }
  auto non_finite = [](const char* section) {
    return Status::ParseError("artifact section '" + std::string(section) +
                              "' invalid: non-finite released value");
  };
  for (int64_t c = 0; c < release.num_clusters; ++c) {
    const double* row = release.Row(c);
    const float* row_f32 = use_f32 ? release.RowF32(c) : nullptr;
    double* blocks = block_max->data() + c * num_blocks;
    float* lines = line_max->data() + c * num_lines;
    double abs_max = 0.0;
    for (int64_t l = 0; l < num_lines; ++l) {
      const int64_t begin = l * kBoundLineItems;
      const int64_t end = std::min(release.num_items, begin + kBoundLineItems);
      double hi = kNone;
      for (int64_t i = begin; i < end; ++i) {
        if (!std::isfinite(row[i])) return non_finite("noisy_table");
        hi = std::max(hi, row[i]);
        abs_max = std::max(abs_max, std::abs(row[i]));
      }
      if (use_f32) {
        hi = kNone;
        for (int64_t i = begin; i < end; ++i) {
          if (!std::isfinite(row_f32[i])) return non_finite("noisy_table_f32");
          const auto v = static_cast<double>(row_f32[i]);
          hi = std::max(hi, v);
          abs_max = std::max(abs_max, std::abs(v));
        }
      }
      lines[l] = RoundUpToFloat(hi);
      double& block = blocks[l / kBoundBlockLines];
      block = std::max(block, hi);
    }
    if (value_max != nullptr) (*value_max)[static_cast<size_t>(c)] = abs_max;
  }
  return Status::Ok();
}

// Derives the tile table of `release`, whose bound table is set, into
// `tile_max` (the layout of ReleaseView::tile_max). Every value is one of
// the block_max values it covers, so the table is exact and, like the
// bound table, derived once per open and not persisted.
inline void BuildTileBounds(const ReleaseView& release,
                            std::vector<double>* tile_max) {
  const int64_t num_blocks = release.NumBlocks();
  const int64_t num_tiles = release.NumTiles();
  tile_max->resize(static_cast<size_t>(release.num_clusters * num_tiles));
  for (int64_t c = 0; c < release.num_clusters; ++c) {
    const double* block_max = release.BlockMaxRow(c);
    double* out = tile_max->data() + c * num_tiles;
    for (int64_t t = 0; t < num_tiles; ++t) {
      const int64_t begin = t * kBoundTileBlocks;
      const int64_t end = std::min(num_blocks, begin + kBoundTileBlocks);
      out[t] = *std::max_element(block_max + begin, block_max + end);
    }
  }
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

// Tiling of the walk. The batch is cut into chunks of at most
// kReconstructGroupUsers users, and each chunk is one group: its walkers
// (the users best-first left unfinished) walk the items in tiles of
// kWalkTileItems, and every walker takes its turn on the tile before the
// group moves on. The walkers thus share the tile's slices of the
// released rows (at most num_clusters × tile), which can stay
// cache-resident across them instead of streaming from memory for each
// one. Group and tile size come from one sweep at the Flixster shape
// (DESIGN.md §5i).
inline constexpr int64_t kReconstructGroupUsers = 40;

// Best-first's budget, in percent of the release's bound blocks (at least
// one block). A user whose list is not provably complete after this many
// blocks joins the walk, which resumes from best-first's list and skips
// the blocks it summed. DESIGN.md §5i records the sweeps that chose 5%.
inline constexpr int64_t kBestFirstBudgetPercent = 5;

// What one ReconstructTopN call did, folded over its chunks in order:
// the degraded users, and the bound blocks summed against the blocks
// there were, over the personalized (non-isolated) users. No block is
// summed twice for one user, so `blocks_visited` is at most
// `blocks_total`.
// `tiles_expanded` counts the tiles whose block bounds were summed, at
// most NumTiles() per personalized user. `lines_summed` counts the lines
// whose items the visited blocks summed, at most kBoundBlockLines per
// visited block.
struct ReconstructCounts {
  int64_t degraded = 0;
  int64_t blocks_visited = 0;
  int64_t blocks_total = 0;
  int64_t tiles_expanded = 0;
  int64_t lines_summed = 0;
};

// Per-user reconstruction, parallel over fixed chunks of the request batch.
// `row_of(u)` yields u's sparse similarity row as a range of entries with
// `.user` / `.score` members (the artifact's WorkloadEntry when serving).
// `global_fn()` returns the GlobalAverageUtilities row for the same view;
// it is only invoked for isolated users, so callers that cache the row
// lazily (the serving engine, which skips the O(C·I) pass across swap
// storms) never pay for it on the personalized path. It must be safe to
// call from concurrent chunks. Lists and diagnostics are written to their
// slots in `lists` / `degradation` (resized here).
//
// It relies on what the engine's open guarantees of the view
// (ReleaseView): every score is > 0, so a cluster's weight reads 0 only
// until its first touch and every bound holds; and every utility and
// bound it sums is finite, so -inf marks the blocks best-first summed.
//
// A batch of several users is served in stable ascending order of each
// user's own cluster: users of one cluster fold to similar weights, so
// the users of a group tend to win in the same blocks and read the same
// row slices. The chunks cut that order, and every list and diagnostic
// goes back to its user's slot; a user's list depends on nothing but the
// user, so the order moves no result.
//
// Per user, one AccumulateRows pass over its tile-table rows gives the
// bound of every tile; a tile's block bounds are summed from the user's
// bound-table rows (one SumBlock) only when the tile is expanded. Best-first
// extracts from one key per tile, the tile bound until the tile is
// expanded and its largest unvisited block bound after: a tile that comes
// out on top unexpanded is expanded, and a block comes out only from an
// expanded tile on top, so blocks come out in descending bound, lower id
// first on ties, exactly as from the full bound row. A block it takes
// has its bound set to -inf. It offers whole blocks to a
// core::TopNAccumulator (the full comparator: ids arrive out of order)
// and stops once the list is full and the top key is strictly below the
// worst kept utility, because a lower-id item in an unseen block may
// still win a tie. Users it leaves unfinished, and every user when top_n
// exceeds its budget, are walkers. A walker keeps best-first's
// accumulator and walks the items ascending, skipping each tile whose
// bound is below its worst kept utility (expanding the others) and each
// block whose bound is below it, read afresh before each block; the
// blocks best-first summed are among those, since the budget's blocks
// hold at least top_n items, so the list best-first hands over is full
// and its worst kept utility finite. Best-first and the walk visit a
// block the same way: one SumBlockF32 over the user's line-table rows
// gives the bound of each of the block's lines, and a line is live
// unless its bound is strictly below the worst kept utility, read once;
// then one SumBlock over the user's rows sums the items from the first
// live line to the end of the last, and offers them. An item of a dead
// line is strictly below the worst kept utility, which only rises, so
// the offer would refuse it too: the accumulator after a visit, and so
// every later decision, is what the whole block's sum leaves. Per
// element the add order is the unpruned one, so the lists do not depend
// on the order, the pruning, the tiling, the chunking, the thread count
// or the dispatch level. A one-user chunk is a group of one.
// Scratch is one permutation of the batch per call and, per thread, the
// group's touched rows and weights (group × num_clusters at most), the
// group's block bounds (group × I / kBoundBlockItems doubles) and its
// tile bounds (group × I / kWalkTileItems, as doubles and as bytes), and
// one block of utilities and line bounds on the stack: bounded by the
// constants, the release shape and the batch size, not by top_n.
template <typename RowOf, typename GlobalFn>
Result<ReconstructCounts> ReconstructTopN(
    const ReleaseView& release, RowOf&& row_of, GlobalFn&& global_fn,
    const std::vector<graph::NodeId>& users, int64_t top_n,
    std::vector<core::RecommendationList>* lists,
    std::vector<core::DegradationInfo>* degradation) {
  const int64_t num_clusters = release.num_clusters;
  const int64_t num_items = release.num_items;
  const int64_t num_blocks = release.NumBlocks();
  const int64_t num_tiles = release.NumTiles();
  const bool use_f32 = release.HasF32();
  const int64_t keep = std::clamp<int64_t>(top_n, 0, num_items);
  const int64_t budget =
      std::max<int64_t>(1, num_blocks * kBestFirstBudgetPercent / 100);
  // Best-first runs only when its budget has a block for every item of
  // the list: the top-N may sit in N different blocks (DESIGN.md §5i).
  // Otherwise the user goes straight to the walk.
  const bool best_first = keep > 0 && keep <= budget;
  constexpr double kVisited = -std::numeric_limits<double>::infinity();
  const auto num_users = static_cast<int64_t>(users.size());
  lists->resize(users.size());
  degradation->resize(users.size());
  // Position k of the serving order is batch slot order[k].
  std::vector<size_t> order(users.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return release.cluster_of[users[a]] < release.cluster_of[users[b]];
  });
  ParallelOptions options;
  options.chunk_size =
      std::min(kReconstructGroupUsers, DefaultChunkSize(num_users));
  return ParallelReduce(
      num_users, options, ReconstructCounts{},
      [&](int64_t, int64_t begin, int64_t end) {
        // Worker-local scratch, fully rewritten per chunk (sim_sum is
        // re-zeroed through the touched list), so results do not depend
        // on which chunks this worker ran before.
        thread_local std::vector<double> sim_sum;
        thread_local std::vector<int64_t> touched;
        // The group's touched rows and weights, user after user; user j
        // of the group owns [row_begin[j], row_begin[j + 1]), its block
        // bounds are bounds[j * num_blocks, (j + 1) * num_blocks) and its
        // tile bounds tile_bounds[j * num_tiles, (j + 1) * num_tiles).
        // Best-first extracts from the tile bounds in place: once a tile
        // is expanded its entry holds its largest unvisited block bound,
        // which nothing else reads.
        thread_local std::vector<double> scales;
        thread_local std::vector<const double*> rows;
        thread_local std::vector<const float*> rows_f32;
        thread_local std::vector<const double*> bound_rows;
        thread_local std::vector<const double*> tile_rows;
        thread_local std::vector<const float*> line_rows;
        thread_local std::vector<size_t> row_begin;
        thread_local std::vector<double> bounds;
        thread_local std::vector<double> tile_bounds;
        // 1 for each tile whose block bounds are summed, laid out as
        // `tile_bounds`; the block bounds of a tile that is not are never
        // read.
        thread_local std::vector<uint8_t> expanded;
        // The group's walkers: slot j, batch slot, and the list so far.
        struct Walker {
          size_t slot;
          size_t index;
          core::TopNAccumulator acc;
        };
        thread_local std::vector<Walker> walkers;
        if (sim_sum.size() < static_cast<size_t>(num_clusters)) {
          sim_sum.assign(static_cast<size_t>(num_clusters), 0.0);
        }
        ReconstructCounts counts;
        // Sums the block bounds of tile t for group user j.
        auto expand = [&](size_t j, int64_t t) {
          const size_t row0 = row_begin[j];
          const int64_t first = t * kBoundTileBlocks;
          kernels::SumBlock(
              bound_rows.data() + row0, first, scales.data() + row0,
              static_cast<int64_t>(row_begin[j + 1] - row0),
              std::min(kBoundTileBlocks, num_blocks - first),
              bounds.data() + j * static_cast<size_t>(num_blocks) +
                  static_cast<size_t>(first));
          expanded[j * static_cast<size_t>(num_tiles) +
                   static_cast<size_t>(t)] = 1;
          ++counts.tiles_expanded;
        };
        // Visits block b for group user j: sums the block's line bounds,
        // then the items of its lines from the first that can still win
        // to the last, and offers them to `acc`, skipping those below the
        // worst kept utility (an equal one may still enter on a lower
        // id). A line bound equal to that utility is summed.
        auto visit = [&](size_t j, core::TopNAccumulator& acc, int64_t b) {
          ++counts.blocks_visited;
          const size_t row0 = row_begin[j];
          const auto num_rows = static_cast<int64_t>(row_begin[j + 1] - row0);
          const int64_t first = b * kBoundBlockItems;
          const int64_t len = std::min(kBoundBlockItems, num_items - first);
          const int64_t num_lines =
              (len + kBoundLineItems - 1) / kBoundLineItems;
          double line[kBoundBlockLines];
          kernels::SumBlockF32(line_rows.data() + row0, b * kBoundBlockLines,
                               scales.data() + row0, num_rows, num_lines,
                               line);
          const double worst = acc.WorstKept();
          int64_t lo = 0;
          while (lo < num_lines && line[lo] < worst) ++lo;
          if (lo == num_lines) return;
          int64_t hi = num_lines;
          while (line[hi - 1] < worst) --hi;
          counts.lines_summed += hi - lo;
          const int64_t from = first + lo * kBoundLineItems;
          const int64_t count =
              std::min(len, hi * kBoundLineItems) - lo * kBoundLineItems;
          double block[kBoundBlockItems];
          if (use_f32) {
            kernels::SumBlockF32(rows_f32.data() + row0, from,
                                 scales.data() + row0, num_rows, count, block);
          } else {
            kernels::SumBlock(rows.data() + row0, from, scales.data() + row0,
                              num_rows, count, block);
          }
          for (int64_t i = 0; i < count; ++i) {
            if (!(block[i] < acc.WorstKept())) acc.Offer(from + i, block[i]);
          }
        };
        // Fold every user of the group: its similarity row down to one
        // weight per touched cluster, in first-touch order.
        scales.clear();
        rows.clear();
        rows_f32.clear();
        bound_rows.clear();
        tile_rows.clear();
        line_rows.clear();
        row_begin.assign(1, 0);
        walkers.clear();
        bounds.resize(static_cast<size_t>((end - begin) * num_blocks));
        tile_bounds.resize(static_cast<size_t>((end - begin) * num_tiles));
        expanded.resize(tile_bounds.size());
        for (int64_t k = begin; k < end; ++k) {
          const size_t index = order[static_cast<size_t>(k)];
          graph::NodeId u = users[index];
          touched.clear();
          for (const auto& e : row_of(u)) {
            int64_t c = release.cluster_of[e.user];
            if (sim_sum[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
            sim_sum[static_cast<size_t>(c)] += e.score;
          }
          core::DegradationInfo info;
          core::RecommendationList& list = (*lists)[index];
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
              tile_rows.push_back(release.TileMaxRow(c));
              line_rows.push_back(release.LineMaxRow(c));
              sim_sum[static_cast<size_t>(c)] = 0.0;
            }
            row_begin.push_back(scales.size());
            counts.blocks_total += num_blocks;
          }
          if (info.degraded()) ++counts.degraded;
          (*degradation)[index] = info;
          if (touched.empty() || keep == 0) continue;

          // Every tile's bound, then best-first over the highest blocks.
          const size_t j = row_begin.size() - 2;
          const size_t row0 = row_begin[j];
          double* ub = bounds.data() + j * static_cast<size_t>(num_blocks);
          double* tb = tile_bounds.data() + j * static_cast<size_t>(num_tiles);
          uint8_t* open = expanded.data() + j * static_cast<size_t>(num_tiles);
          std::fill(tb, tb + num_tiles, 0.0);
          std::fill(open, open + num_tiles, uint8_t{0});
          kernels::AccumulateRows(
              tile_rows.data() + row0, scales.data() + row0,
              static_cast<int64_t>(row_begin[j + 1] - row0), num_tiles, tb);
          core::TopNAccumulator acc(keep);
          if (best_first) {
            // The first largest unvisited block bound of an expanded
            // tile; a taken block's bound reads kVisited.
            auto tile_top = [&](int64_t t) {
              const int64_t lo = t * kBoundTileBlocks;
              const int64_t len = std::min(kBoundTileBlocks, num_blocks - lo);
              return lo + kernels::FirstArgMax(ub + lo, len);
            };
            bool finished = false;
            for (int64_t visited = 0;;) {
              const int64_t t = kernels::FirstArgMax(tb, num_tiles);
              // The top key bounds every unvisited block: below the
              // worst kept utility, no block can enter the list.
              if (tb[t] < acc.WorstKept()) {
                finished = true;
                break;
              }
              if (!open[t]) {
                // The tile bound is at least each block bound of the
                // tile, and ties go to the lower tile, so expanding the
                // tile on top moves no block ahead of another.
                expand(j, t);
                tb[t] = ub[tile_top(t)];
                continue;
              }
              // Out of budget: the walk takes over.
              if (visited == budget) break;
              const int64_t b = tile_top(t);
              ub[b] = kVisited;
              tb[t] = ub[tile_top(t)];
              visit(j, acc, b);
              ++visited;
            }
            if (finished) {
              list = acc.Take();
              continue;
            }
          }
          walkers.push_back({j, index, std::move(acc)});
        }
        if (walkers.empty()) return counts;
        // Walk the items once for the group's walkers.
        for (int64_t t = 0; t < num_tiles; ++t) {
          const int64_t first = t * kBoundTileBlocks;
          const int64_t last = std::min(num_blocks, first + kBoundTileBlocks);
          for (Walker& w : walkers) {
            const size_t j = w.slot;
            const size_t at =
                j * static_cast<size_t>(num_tiles) + static_cast<size_t>(t);
            // A tile bound below the floor holds every block bound of
            // the tile below it: the whole tile is skipped.
            if (!expanded[at]) {
              if (tile_bounds[at] < w.acc.WorstKept()) continue;
              expand(j, t);
            }
            const double* ub =
                bounds.data() + j * static_cast<size_t>(num_blocks);
            for (int64_t b = first; b < last; ++b) {
              if (!(ub[b] < w.acc.WorstKept())) visit(j, w.acc, b);
            }
          }
        }
        for (Walker& w : walkers) (*lists)[w.index] = w.acc.Take();
        return counts;
      },
      [](ReconstructCounts& acc, const ReconstructCounts& part) {
        acc.degraded += part.degraded;
        acc.blocks_visited += part.blocks_visited;
        acc.blocks_total += part.blocks_total;
        acc.tiles_expanded += part.tiles_expanded;
        acc.lines_summed += part.lines_summed;
      });
}

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_RECONSTRUCT_H_
