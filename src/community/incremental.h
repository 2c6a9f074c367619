// IncrementalCommunity: Louvain partition maintenance under edge churn.
//
// The streaming pipeline cannot afford a full createClusters(G_s) per
// delta, and the group-maintenance literature (arXiv 1305.0540, PAPERS.md)
// shows local repair suffices between periodic re-clusterings. This class
// keeps the partition and its modularity bookkeeping incrementally:
//
//   - Per delta, the integer sufficient statistics of modularity are
//     updated in O(1): m (edge count), intra_c (intra-cluster edges) and
//     degsum_c (total degree) per cluster. Q is evaluated on demand as
//     Σ_c (intra_c / m − γ (degsum_c / 2m)²) straight from the integers,
//     so replaying the same delta prefix reproduces bit-identical values.
//   - After each delta the two endpoints get a local-moving pass (the
//     inner step of Louvain restricted to the touched nodes): each may
//     move to the neighboring cluster with the highest modularity gain.
//   - `baseline` records Q right after the last full clustering. When the
//     maintained Q drifts more than `drift_threshold` below it, the next
//     delta triggers a full Louvain restart (seeded deterministically from
//     the restart count, so crash-replayed streams restart identically).
//     Note the drift conflates graph change with partition staleness —
//     deliberately: both erode the utility of the published clustering,
//     and both are reasons to spend budget on a fresh release.
//
// A fresh instance is all singletons with baseline 0; the very first edges
// push Q negative, so the first threshold crossing IS the initial
// clustering — no special bootstrap path.
//
// Obs gauges/counters: privrec.stream.community_modularity,
// privrec.stream.community_drift, privrec.stream.community_local_moves,
// privrec.stream.community_restarts.

#ifndef PRIVREC_COMMUNITY_INCREMENTAL_H_
#define PRIVREC_COMMUNITY_INCREMENTAL_H_

#include <cstdint>
#include <set>
#include <vector>

#include "community/louvain.h"
#include "community/partition.h"
#include "graph/social_graph.h"

namespace privrec::community {

struct IncrementalCommunityOptions {
  // Full-restart configuration (resolution also scales the incremental
  // gain formula so local moves optimize the same objective).
  LouvainOptions louvain;
  // Restart full clustering once baseline − Q exceeds this.
  double drift_threshold = 0.05;
  // Seed stream for restart r uses SplitMix64(seed ^ r).
  uint64_t seed = 33;
};

class IncrementalCommunity {
 public:
  explicit IncrementalCommunity(graph::NodeId num_nodes,
                                const IncrementalCommunityOptions& options =
                                    IncrementalCommunityOptions());

  // Idempotent: duplicate adds / missing removes are no-ops. Self loops
  // and out-of-range ids are caller bugs (checked).
  void AddEdge(graph::NodeId u, graph::NodeId v);
  void RemoveEdge(graph::NodeId u, graph::NodeId v);

  // The maintained clustering, compacted to dense cluster ids.
  Partition partition() const { return Partition(label_); }
  const std::vector<int64_t>& labels() const { return label_; }

  // Maintained modularity of the current partition on the current graph
  // (0 on an empty graph). Matches community::Modularity() recomputation
  // up to summation order.
  double modularity() const;
  double baseline() const { return baseline_; }
  // How far Q has decayed since the last full clustering (>= 0).
  double drift() const;

  graph::NodeId num_nodes() const {
    return static_cast<graph::NodeId>(adj_.size());
  }
  int64_t num_edges() const { return m_; }
  int64_t full_restarts() const { return full_restarts_; }
  int64_t local_moves() const { return local_moves_; }

  // Materializes the maintained adjacency (restart path; also the
  // invariant the tests recompute modularity against).
  graph::SocialGraph BuildGraph() const;

  // Runs a full Louvain restart now and resets the baseline.
  void ForceRestart();

 private:
  // Links from x into cluster `c`, excluding x itself.
  int64_t LinksInto(graph::NodeId x, int64_t c) const;
  // Modularity gain of moving x from its cluster to `to`.
  double MoveGain(graph::NodeId x, int64_t to) const;
  void ApplyMove(graph::NodeId x, int64_t to);
  // Moves x to its best neighboring cluster if the gain clears
  // kMinModularityGain.
  void TryLocalMove(graph::NodeId x);
  void MaybeRestart();
  void PublishGauges() const;

  IncrementalCommunityOptions options_;
  std::vector<std::set<graph::NodeId>> adj_;
  std::vector<int64_t> label_;
  // Modularity sufficient statistics, indexed by label (labels live in
  // [0, num_nodes); local moves reuse existing labels, restarts re-densify).
  std::vector<int64_t> intra_;
  std::vector<int64_t> degsum_;
  int64_t m_ = 0;
  double baseline_ = 0.0;
  int64_t full_restarts_ = 0;
  int64_t local_moves_ = 0;
};

}  // namespace privrec::community

#endif  // PRIVREC_COMMUNITY_INCREMENTAL_H_
