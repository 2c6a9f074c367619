// Degree-corrected planted-partition generator (LFR-style).
//
// Produces social graphs with (a) a controllable community structure, (b) a
// heavy-tailed degree distribution, and (c) optional tiny extra components
// — the three structural properties of the paper's Last.fm / Flixster
// social graphs that drive the behaviour of the privacy framework
// (community clustering quality, high-degree sensitivity, low-degree
// approximation error).
//
// Model: nodes are assigned to communities with sizes proportional to a
// Zipf weight; each node draws a target degree from a truncated power law
// scaled to the requested mean; edges are realized by degree-proportional
// stub matching, where a fraction (1 - mixing) of each node's stubs attach
// within its community and the rest attach globally. Multi-edges and self
// loops are discarded (the realized mean degree is therefore slightly below
// target; the factory in src/data compensates).

#ifndef PRIVREC_GRAPH_GENERATORS_PLANTED_PARTITION_H_
#define PRIVREC_GRAPH_GENERATORS_PLANTED_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/social_graph.h"

namespace privrec::graph {

struct PlantedPartitionOptions {
  NodeId num_nodes = 1000;
  int64_t num_communities = 16;
  // Zipf exponent for community sizes (0 = equal sizes).
  double community_size_skew = 0.6;
  // Target mean degree of the main component.
  double mean_degree = 13.4;
  // Power-law exponent for the degree distribution (larger = lighter tail).
  double degree_exponent = 2.5;
  // Max degree cap as a multiple of the mean (controls the tail).
  double max_degree_factor = 15.0;
  // Fraction of each node's edges that leave its community (the LFR mu).
  double mixing = 0.15;
  // Optional second (finer) level: each community is split into this many
  // sub-communities. Sub-structure is kept weak enough (via sub_mixing)
  // that modularity clustering resolves only the coarse level — real
  // social graphs have taste groups finer than their detectable
  // communities, which is what gives the paper's framework its
  // approximation error.
  int64_t sub_communities_per_community = 1;
  // Among a node's intra-community edges: the fraction that leave its
  // sub-community (only meaningful when sub_communities_per_community
  // > 1; higher = weaker sub-structure).
  double sub_mixing = 0.5;
  // Number of extra tiny components of 2-7 nodes appended after the main
  // graph.
  int64_t num_small_components = 0;
  uint64_t seed = 42;
};

struct PlantedPartitionResult {
  SocialGraph graph;
  // Ground-truth community of each node; tiny extra components get their
  // own community ids after the planted ones.
  std::vector<int64_t> community_of;
  int64_t num_communities = 0;
  // Fine-level ground truth (== community_of when
  // sub_communities_per_community is 1). Tiny components keep one
  // sub-community each.
  std::vector<int64_t> sub_community_of;
  int64_t num_sub_communities = 0;
};

PlantedPartitionResult GeneratePlantedPartition(
    const PlantedPartitionOptions& options);

}  // namespace privrec::graph

#endif  // PRIVREC_GRAPH_GENERATORS_PLANTED_PARTITION_H_
