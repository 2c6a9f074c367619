#include "community/postprocess.h"

#include <algorithm>
#include <vector>

namespace privrec::community {

Partition MergeSmallClusters(const graph::SocialGraph& g,
                             const Partition& partition,
                             const MergeSmallClustersOptions& options) {
  PRIVREC_CHECK(partition.num_nodes() == g.num_nodes());
  PRIVREC_CHECK(options.min_size >= 1);
  const int64_t min_size =
      std::min<int64_t>(options.min_size, g.num_nodes());

  // Safety bound on merge rounds (a merge can create a new small cluster
  // only by pooling isolated ones, so a few rounds always suffice).
  constexpr int kMaxRounds = 16;
  std::vector<int64_t> label = partition.cluster_of();
  for (int round = 0; round < kMaxRounds; ++round) {
    Partition current(label);
    label = current.cluster_of();
    const int64_t k = current.num_clusters();

    // Identify the small clusters.
    std::vector<bool> small(static_cast<size_t>(k), false);
    bool any_small = false;
    for (int64_t c = 0; c < k; ++c) {
      if (current.ClusterSize(c) < min_size) {
        small[static_cast<size_t>(c)] = true;
        any_small = true;
      }
    }
    if (!any_small || k == 1) break;

    // Edge cut from each small cluster to every other cluster.
    std::vector<std::vector<int64_t>> cut(
        static_cast<size_t>(k), std::vector<int64_t>());
    for (int64_t c = 0; c < k; ++c) {
      if (small[static_cast<size_t>(c)]) {
        cut[static_cast<size_t>(c)].assign(static_cast<size_t>(k), 0);
      }
    }
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      int64_t cu = label[static_cast<size_t>(u)];
      if (!small[static_cast<size_t>(cu)]) continue;
      for (graph::NodeId v : g.Neighbors(u)) {
        int64_t cv = label[static_cast<size_t>(v)];
        if (cv != cu) ++cut[static_cast<size_t>(cu)][static_cast<size_t>(cv)];
      }
    }

    // Merge each small cluster into its best-connected neighbor; those
    // with no external edges pool into a shared catch-all. Union-find
    // keeps mutual/chained merges well-defined.
    std::vector<int64_t> parent(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) parent[static_cast<size_t>(c)] = c;
    auto find = [&](int64_t c) {
      while (parent[static_cast<size_t>(c)] != c) {
        parent[static_cast<size_t>(c)] =
            parent[static_cast<size_t>(parent[static_cast<size_t>(c)])];
        c = parent[static_cast<size_t>(c)];
      }
      return c;
    };
    bool changed = false;
    int64_t catch_all = -1;
    for (int64_t c = 0; c < k; ++c) {
      if (!small[static_cast<size_t>(c)]) continue;
      int64_t best = -1;
      int64_t best_cut = 0;
      for (int64_t other = 0; other < k; ++other) {
        if (other == c) continue;
        int64_t w = cut[static_cast<size_t>(c)][static_cast<size_t>(other)];
        if (w > best_cut) {
          best_cut = w;
          best = other;
        }
      }
      if (best < 0) {
        // Isolated: pool into the catch-all.
        if (catch_all == -1) {
          catch_all = c;
          continue;
        }
        best = catch_all;
      }
      int64_t ra = find(c);
      int64_t rb = find(best);
      if (ra != rb) {
        parent[static_cast<size_t>(ra)] = rb;
        changed = true;
      }
    }
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      label[static_cast<size_t>(u)] =
          find(label[static_cast<size_t>(u)]);
    }
    if (!changed) {
      // Only an under-sized catch-all pool can remain; fold it into the
      // smallest regular cluster and stop.
      Partition pooled(label);
      int64_t smallest = -1;
      int64_t undersized = -1;
      for (int64_t c = 0; c < pooled.num_clusters(); ++c) {
        if (pooled.ClusterSize(c) < min_size) {
          undersized = c;
        } else if (smallest == -1 ||
                   pooled.ClusterSize(c) < pooled.ClusterSize(smallest)) {
          smallest = c;
        }
      }
      if (undersized >= 0 && smallest >= 0) {
        std::vector<int64_t> relabeled = pooled.cluster_of();
        for (int64_t& l : relabeled) {
          if (l == undersized) l = smallest;
        }
        label = std::move(relabeled);
      }
      break;
    }
  }
  return Partition(label);
}

}  // namespace privrec::community
