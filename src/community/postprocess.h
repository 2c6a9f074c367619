// Clustering post-processing heuristics — the paper's future-work item
// (2): "investigating post-processing heuristics to clean up the
// clustering by, for example, pruning low-quality clusters".
//
// The dominant quality problem for Algorithm 1 is tiny clusters: a
// cluster of size s receives Laplace noise of scale w_max/(s·ε) on every
// item average, so the 2-7-node components of Last.fm are pure noise at
// small ε. MergeSmallClusters absorbs every cluster below a minimum size
// into the neighboring cluster it shares the most social edges with
// (isolated small clusters, e.g. separate components, are pooled into one
// catch-all cluster). The heuristic reads only the public social graph,
// so the privacy guarantee is untouched.

#ifndef PRIVREC_COMMUNITY_POSTPROCESS_H_
#define PRIVREC_COMMUNITY_POSTPROCESS_H_

#include <cstdint>

#include "community/partition.h"
#include "graph/social_graph.h"

namespace privrec::community {

struct MergeSmallClustersOptions {
  // Clusters strictly smaller than this are merged away. 1 disables.
  int64_t min_size = 8;
};

// Returns a partition in which every cluster has at least
// min(min_size, num_nodes) members. Merging priority: the neighbor
// cluster with the largest edge cut to the small cluster; small clusters
// with no external edges are pooled together (and with the smallest
// normal cluster if the pool itself stays too small).
Partition MergeSmallClusters(const graph::SocialGraph& g,
                             const Partition& partition,
                             const MergeSmallClustersOptions& options = {});

}  // namespace privrec::community

#endif  // PRIVREC_COMMUNITY_POSTPROCESS_H_
