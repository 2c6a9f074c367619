#include "graph/metrics.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/random.h"
#include "graph/components.h"

namespace privrec::graph {

namespace {

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  // FNV-1a over the 8 bytes of v, little-endian.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t DatasetFingerprint(const SocialGraph& social,
                            const PreferenceGraph& preferences) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis.
  h = FnvMix(h, static_cast<uint64_t>(social.num_nodes()));
  h = FnvMix(h, static_cast<uint64_t>(social.num_edges()));
  for (NodeId u = 0; u < social.num_nodes(); ++u) {
    for (NodeId v : social.Neighbors(u)) {
      h = FnvMix(h, static_cast<uint64_t>(u));
      h = FnvMix(h, static_cast<uint64_t>(v));
    }
  }
  h = FnvMix(h, static_cast<uint64_t>(preferences.num_users()));
  h = FnvMix(h, static_cast<uint64_t>(preferences.num_items()));
  h = FnvMix(h, static_cast<uint64_t>(preferences.num_edges()));
  for (NodeId u = 0; u < preferences.num_users(); ++u) {
    auto items = preferences.ItemsOf(u);
    auto weights = preferences.WeightsOf(u);
    for (size_t k = 0; k < items.size(); ++k) {
      h = FnvMix(h, static_cast<uint64_t>(items[k]));
      h = FnvMix(h, std::bit_cast<uint64_t>(weights[k]));
    }
  }
  return h;
}

namespace {

// Counts edges among the neighbors of u (each counted once).
int64_t TrianglesAt(const SocialGraph& g, NodeId u) {
  auto nbrs = g.Neighbors(u);
  int64_t links = 0;
  for (size_t a = 0; a < nbrs.size(); ++a) {
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      if (g.HasEdge(nbrs[a], nbrs[b])) ++links;
    }
  }
  return links;
}

}  // namespace

double GlobalClusteringCoefficient(const SocialGraph& g) {
  // 3 * triangles = sum over nodes of edges-among-neighbors; each triangle
  // is seen from its three corners. Triples = sum of C(deg, 2).
  int64_t closed = 0;
  int64_t triples = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    closed += TrianglesAt(g, u);
    int64_t d = g.Degree(u);
    triples += d * (d - 1) / 2;
  }
  if (triples == 0) return 0.0;
  return static_cast<double>(closed) / static_cast<double>(triples);
}

PathLengthStats SampleShortestPaths(const SocialGraph& g,
                                    int64_t num_sources, uint64_t seed) {
  PathLengthStats stats;
  if (g.num_nodes() == 0) return stats;
  Rng rng(seed);
  std::vector<NodeId> sources;
  if (num_sources >= g.num_nodes()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) sources.push_back(u);
  } else {
    for (uint64_t raw : rng.SampleWithoutReplacement(
             static_cast<uint64_t>(g.num_nodes()),
             static_cast<uint64_t>(num_sources))) {
      sources.push_back(static_cast<NodeId>(raw));
    }
  }
  double total = 0.0;
  int64_t pairs = 0;
  for (NodeId s : sources) {
    auto dist = BfsDistances(g, s, g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      int64_t d = dist[static_cast<size_t>(v)];
      if (d <= 0) continue;  // unreachable or self
      total += static_cast<double>(d);
      ++pairs;
      stats.observed_diameter = std::max(stats.observed_diameter, d);
    }
  }
  stats.sampled_sources = static_cast<int64_t>(sources.size());
  stats.average_distance =
      pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
  return stats;
}

double MeanNeighborhoodCoverage(const SocialGraph& g, int64_t hops,
                                int64_t num_sources, uint64_t seed) {
  PRIVREC_CHECK(hops >= 0);
  if (g.num_nodes() == 0) return 0.0;
  Rng rng(seed);
  std::vector<NodeId> sources;
  if (num_sources >= g.num_nodes()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) sources.push_back(u);
  } else {
    for (uint64_t raw : rng.SampleWithoutReplacement(
             static_cast<uint64_t>(g.num_nodes()),
             static_cast<uint64_t>(num_sources))) {
      sources.push_back(static_cast<NodeId>(raw));
    }
  }
  double acc = 0.0;
  for (NodeId s : sources) {
    auto dist = BfsDistances(g, s, hops);
    int64_t reached = 0;
    for (int64_t d : dist) {
      if (d > 0) ++reached;
    }
    acc += static_cast<double>(reached) /
           static_cast<double>(g.num_nodes());
  }
  return acc / static_cast<double>(sources.size());
}

}  // namespace privrec::graph
