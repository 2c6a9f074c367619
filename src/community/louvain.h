// Louvain community detection (Blondel et al. 2008) with multi-level
// refinement (Rotta & Noack 2011) and best-of-R restarts — the
// createClusters(G_s) of Algorithm 1, configured exactly as Section 6.2
// describes (10 restarts with different random node orders, keep the
// clustering with the highest modularity).
//
// The algorithm alternates two steps until modularity stops improving:
//   1. Local moving: scan nodes in random order, moving each into the
//      neighboring community with the largest modularity gain.
//   2. Contraction: collapse each community into a super-node (intra-
//      community weight becomes a self loop) and recurse.
// Refinement then walks the hierarchy back down, re-running local moving
// at every level seeded with the projected partition, which both improves
// Q and stabilizes the output across node orderings.

#ifndef PRIVREC_COMMUNITY_LOUVAIN_H_
#define PRIVREC_COMMUNITY_LOUVAIN_H_

#include <cstdint>

#include "community/partition.h"
#include "graph/social_graph.h"

namespace privrec::community {

// A local move (Louvain's and IncrementalCommunity's) must improve Q by
// more than this; a Louvain level whose moves gained no more ends the
// hierarchy.
constexpr double kMinModularityGain = 1e-9;

struct LouvainOptions {
  // Independent runs with different random node orders; the run with the
  // highest modularity wins (Section 6.2 uses 10).
  int restarts = 10;
  // Enables the multi-level refinement pass.
  bool refine = true;
  // Resolution parameter gamma of generalized modularity (Reichardt &
  // Bornholdt): > 1 favors more, smaller communities (useful against the
  // resolution limit); < 1 favors fewer, larger ones. 1 is the paper's
  // standard modularity.
  double resolution = 1.0;
  uint64_t seed = 17;
};

struct LouvainResult {
  Partition partition;
  // Standard modularity (resolution 1) of the winning partition; restart
  // selection uses the configured resolution's generalized modularity.
  double modularity = 0.0;
  // Hierarchy depth of the winning run.
  int levels = 0;
};

LouvainResult RunLouvain(const graph::SocialGraph& g,
                         const LouvainOptions& options = {});

}  // namespace privrec::community

#endif  // PRIVREC_COMMUNITY_LOUVAIN_H_
