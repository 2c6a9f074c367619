// Structural graph metrics used to validate the synthetic social graphs
// against the properties the paper leans on: the small-world property
// (Section 2.2's justification for 2-3-hop cutoffs, citing Newman 2001)
// and community-induced transitivity.

#ifndef PRIVREC_GRAPH_METRICS_H_
#define PRIVREC_GRAPH_METRICS_H_

#include <cstdint>

#include "graph/preference_graph.h"
#include "graph/social_graph.h"

namespace privrec::graph {

// Order-sensitive FNV-1a fingerprint of a (social, preference) graph pair:
// dimensions, every social edge, and every weighted preference edge feed
// the hash. Used as the artifact compatibility gate — a model built on one
// dataset must refuse to serve another. Not cryptographic.
uint64_t DatasetFingerprint(const SocialGraph& social,
                            const PreferenceGraph& preferences);

// Global clustering coefficient: 3 * #triangles / #connected-triples.
// 0 on graphs without triples.
double GlobalClusteringCoefficient(const SocialGraph& g);

struct PathLengthStats {
  // Mean shortest-path distance over sampled connected pairs.
  double average_distance = 0.0;
  // Largest distance observed from the sampled sources (a lower bound on
  // the diameter).
  int64_t observed_diameter = 0;
  int64_t sampled_sources = 0;
};

// BFS from `num_sources` random sources (exact when num_sources >=
// num_nodes); unreachable pairs are excluded.
PathLengthStats SampleShortestPaths(const SocialGraph& g,
                                    int64_t num_sources, uint64_t seed);

// Fraction of nodes within `hops` of u, averaged over sampled sources —
// the "reachable users explode after 2 hops" effect of Section 2.2.
double MeanNeighborhoodCoverage(const SocialGraph& g, int64_t hops,
                                int64_t num_sources, uint64_t seed);

}  // namespace privrec::graph

#endif  // PRIVREC_GRAPH_METRICS_H_
