// Partition quality metrics beyond modularity: conductance and coverage.
// Used by the clustering benches to characterize why a clustering works
// for Algorithm 1 — low-conductance clusters keep similarity sets inside
// one cluster (small approximation error), and cluster sizes set the
// noise scale.

#ifndef PRIVREC_COMMUNITY_QUALITY_H_
#define PRIVREC_COMMUNITY_QUALITY_H_

#include <vector>

#include "community/partition.h"
#include "graph/social_graph.h"

namespace privrec::community {

struct PartitionQuality {
  // Fraction of all edges that are intra-cluster.
  double coverage = 0.0;
  // Mean / max conductance over clusters with nonzero volume. A cluster's
  // conductance is cut(c) / min(vol(c), vol(complement)), where vol is
  // total degree and cut counts edges leaving the cluster; 0 = perfectly
  // separated.
  double mean_conductance = 0.0;
  double max_conductance = 0.0;
  // Standard modularity, for convenience.
  double modularity = 0.0;
};

PartitionQuality EvaluatePartitionQuality(const graph::SocialGraph& g,
                                          const Partition& partition);

}  // namespace privrec::community

#endif  // PRIVREC_COMMUNITY_QUALITY_H_
