#include "graph/generators/planted_partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "common/random.h"
#include "obs/trace.h"

namespace privrec::graph {

namespace {

// Allocates `total` node slots to `parts` communities proportionally to
// Zipf weights 1/(c+1)^skew, with a minimum size of 3, using largest
// remainders.
std::vector<int64_t> CommunitySizes(int64_t total, int64_t parts,
                                    double skew) {
  PRIVREC_CHECK(parts >= 1);
  PRIVREC_CHECK(total >= 3 * parts);
  std::vector<double> weights(static_cast<size_t>(parts));
  double sum = 0.0;
  for (int64_t c = 0; c < parts; ++c) {
    weights[static_cast<size_t>(c)] =
        1.0 / std::pow(static_cast<double>(c + 1), skew);
    sum += weights[static_cast<size_t>(c)];
  }
  std::vector<int64_t> sizes(static_cast<size_t>(parts), 3);
  int64_t remaining = total - 3 * parts;
  std::vector<double> frac(static_cast<size_t>(parts));
  int64_t assigned = 0;
  for (int64_t c = 0; c < parts; ++c) {
    double share =
        weights[static_cast<size_t>(c)] / sum * static_cast<double>(remaining);
    int64_t whole = static_cast<int64_t>(share);
    sizes[static_cast<size_t>(c)] += whole;
    frac[static_cast<size_t>(c)] = share - static_cast<double>(whole);
    assigned += whole;
  }
  // Distribute leftovers by largest fractional part.
  std::vector<int64_t> order(static_cast<size_t>(parts));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return frac[static_cast<size_t>(a)] > frac[static_cast<size_t>(b)];
  });
  for (int64_t k = 0; k < remaining - assigned; ++k) {
    ++sizes[static_cast<size_t>(order[static_cast<size_t>(k) %
                                      order.size()])];
  }
  return sizes;
}

// Pairs up stubs (node ids, one entry per half-edge) into distinct edges.
// Self loops and duplicates are not realized; stubs they would have used
// are re-matched in further rounds so the realized degree sequence stays
// close to the target (plain one-shot matching loses 10-20% of the edges
// on heavy-tailed sequences).
void MatchStubs(std::vector<NodeId> stubs, Rng& rng,
                std::set<std::pair<NodeId, NodeId>>* edges) {
  for (int round = 0; round < 4 && stubs.size() >= 2; ++round) {
    rng.Shuffle(stubs);
    std::vector<NodeId> unmatched;
    for (size_t k = 0; k + 1 < stubs.size(); k += 2) {
      NodeId a = stubs[k];
      NodeId b = stubs[k + 1];
      if (a == b) {
        unmatched.push_back(a);
        unmatched.push_back(b);
        continue;
      }
      auto key = std::make_pair(std::min(a, b), std::max(a, b));
      if (!edges->insert(key).second) {
        unmatched.push_back(a);
        unmatched.push_back(b);
      }
    }
    if (stubs.size() % 2 == 1) unmatched.push_back(stubs.back());
    stubs = std::move(unmatched);
  }
}

}  // namespace

PlantedPartitionResult GeneratePlantedPartition(
    const PlantedPartitionOptions& options) {
  PRIVREC_SPAN("graph.planted_partition");
  PRIVREC_CHECK(options.num_nodes > 0);
  PRIVREC_CHECK(options.mixing >= 0.0 && options.mixing <= 1.0);
  PRIVREC_CHECK(options.mean_degree >= 1.0);
  PRIVREC_CHECK(options.degree_exponent > 1.0);
  Rng rng(options.seed);

  // Carve out the tiny components first, 2-7 nodes each (inclusive).
  constexpr int64_t kSmallComponentMinSize = 2;
  constexpr int64_t kSmallComponentMaxSize = 7;
  std::vector<int64_t> small_sizes;
  int64_t small_total = 0;
  for (int64_t k = 0; k < options.num_small_components; ++k) {
    int64_t size =
        rng.UniformInt(kSmallComponentMinSize, kSmallComponentMaxSize);
    small_sizes.push_back(size);
    small_total += size;
  }
  int64_t main_nodes = options.num_nodes - small_total;
  PRIVREC_CHECK_MSG(main_nodes >= 3 * options.num_communities,
                    "too many tiny components for the requested size");

  std::vector<int64_t> sizes =
      CommunitySizes(main_nodes, options.num_communities,
                     options.community_size_skew);

  PlantedPartitionResult result;
  result.community_of.resize(static_cast<size_t>(options.num_nodes));
  result.sub_community_of.resize(static_cast<size_t>(options.num_nodes));
  std::vector<std::vector<NodeId>> members(
      static_cast<size_t>(options.num_communities));
  // Fine level: contiguous equal chunks within each community (so sub
  // membership correlates with graph proximity once edges favor subs).
  std::vector<int64_t> sub_sizes;  // size of each sub-community
  {
    PRIVREC_CHECK(options.sub_communities_per_community >= 1);
    PRIVREC_CHECK(options.sub_mixing >= 0.0 && options.sub_mixing <= 1.0);
    NodeId next = 0;
    int64_t next_sub = 0;
    for (int64_t c = 0; c < options.num_communities; ++c) {
      int64_t size = sizes[static_cast<size_t>(c)];
      // Subs of at least 3 members.
      int64_t subs = std::min<int64_t>(
          options.sub_communities_per_community, std::max<int64_t>(1, size / 3));
      for (int64_t k = 0; k < size; ++k) {
        result.community_of[static_cast<size_t>(next)] = c;
        int64_t local_sub = std::min<int64_t>(k * subs / size, subs - 1);
        result.sub_community_of[static_cast<size_t>(next)] =
            next_sub + local_sub;
        members[static_cast<size_t>(c)].push_back(next);
        ++next;
      }
      // Sub sizes by counting (robust to the rounding rule).
      std::vector<int64_t> counts(static_cast<size_t>(subs), 0);
      for (int64_t k = 0; k < size; ++k) {
        ++counts[static_cast<size_t>(
            std::min<int64_t>(k * subs / size, subs - 1))];
      }
      for (int64_t x : counts) sub_sizes.push_back(x);
      next_sub += subs;
    }
    result.num_sub_communities = next_sub;
  }

  // Degree targets: truncated Pareto scaled to the requested mean.
  const double gamma = options.degree_exponent;
  const double dmax =
      std::max(2.0, options.mean_degree * options.max_degree_factor);
  std::vector<double> raw(static_cast<size_t>(main_nodes));
  double raw_sum = 0.0;
  for (int64_t u = 0; u < main_nodes; ++u) {
    double x = std::pow(1.0 - rng.UniformDouble(), -1.0 / (gamma - 1.0));
    x = std::min(x, dmax);
    raw[static_cast<size_t>(u)] = x;
    raw_sum += x;
  }
  // Realize the degree sequence for a given target mean: clamp against
  // community capacity (a node cannot have more in-community neighbors
  // than its community has other members, plus its external budget), split
  // stubs internal/external, and match. Both the clamping and the
  // duplicate-discarding matching lose degree mass, so an outer feedback
  // loop below re-runs with a boosted target until the realized mean is
  // close.
  auto realize = [&](double target_mean) {
    double scale = target_mean * static_cast<double>(main_nodes) / raw_sum;
    std::vector<int64_t> degree(static_cast<size_t>(main_nodes));
    for (int iteration = 0; iteration < 16; ++iteration) {
      int64_t total = 0;
      for (int64_t u = 0; u < main_nodes; ++u) {
        int64_t d = static_cast<int64_t>(
            std::llround(raw[static_cast<size_t>(u)] * scale));
        d = std::max<int64_t>(1, d);
        int64_t comm = result.community_of[static_cast<size_t>(u)];
        int64_t comm_cap =
            sizes[static_cast<size_t>(comm)] - 1 +
            static_cast<int64_t>(options.mixing * static_cast<double>(d)) +
            1;
        degree[static_cast<size_t>(u)] = std::min(d, comm_cap);
        total += degree[static_cast<size_t>(u)];
      }
      double realized =
          static_cast<double>(total) / static_cast<double>(main_nodes);
      double error = realized / target_mean;
      if (error > 0.99 && error < 1.01) break;
      double next = scale * (target_mean / realized);
      // Give up growing once the caps absorb everything.
      if (next > 64.0 * scale || !std::isfinite(next)) break;
      scale = next;
    }

    std::set<std::pair<NodeId, NodeId>> realized_edges;
    std::vector<NodeId> external_stubs;
    // Per-sub stub pools (only used when sub-structure is enabled).
    const bool has_subs = options.sub_communities_per_community > 1;
    std::vector<std::vector<NodeId>> sub_stub_pools(
        has_subs ? static_cast<size_t>(result.num_sub_communities) : 0);
    for (int64_t c = 0; c < options.num_communities; ++c) {
      std::vector<NodeId> internal_stubs;
      for (NodeId u : members[static_cast<size_t>(c)]) {
        int64_t d = degree[static_cast<size_t>(u)];
        int64_t ext = static_cast<int64_t>(
            std::llround(options.mixing * static_cast<double>(d)));
        int64_t internal = d - ext;
        // Clamp internal stubs to what the community can absorb.
        internal = std::min<int64_t>(
            internal, sizes[static_cast<size_t>(c)] - 1);
        int64_t sub_internal = 0;
        if (has_subs) {
          int64_t sub = result.sub_community_of[static_cast<size_t>(u)];
          sub_internal = static_cast<int64_t>(std::llround(
              (1.0 - options.sub_mixing) * static_cast<double>(internal)));
          sub_internal = std::min<int64_t>(
              sub_internal, sub_sizes[static_cast<size_t>(sub)] - 1);
          for (int64_t k = 0; k < sub_internal; ++k) {
            sub_stub_pools[static_cast<size_t>(sub)].push_back(u);
          }
        }
        for (int64_t k = 0; k < internal - sub_internal; ++k) {
          internal_stubs.push_back(u);
        }
        for (int64_t k = 0; k < ext; ++k) external_stubs.push_back(u);
      }
      MatchStubs(std::move(internal_stubs), rng, &realized_edges);
    }
    for (auto& pool : sub_stub_pools) {
      MatchStubs(std::move(pool), rng, &realized_edges);
    }
    MatchStubs(std::move(external_stubs), rng, &realized_edges);
    return realized_edges;
  };

  std::set<std::pair<NodeId, NodeId>> edges = realize(options.mean_degree);
  for (int feedback = 0; feedback < 4; ++feedback) {
    double realized_mean = 2.0 * static_cast<double>(edges.size()) /
                           static_cast<double>(main_nodes);
    double ratio = realized_mean / options.mean_degree;
    if (ratio > 0.97) break;
    edges = realize(options.mean_degree * options.mean_degree /
                    realized_mean);
  }

  // Guarantee no isolated main nodes (stub matching can strand degree-1
  // nodes when their partner duplicates): connect any isolated node to a
  // random member of its community.
  {
    std::vector<int64_t> seen_degree(static_cast<size_t>(main_nodes), 0);
    for (auto [a, b] : edges) {
      if (a < main_nodes) ++seen_degree[static_cast<size_t>(a)];
      if (b < main_nodes) ++seen_degree[static_cast<size_t>(b)];
    }
    for (int64_t u = 0; u < main_nodes; ++u) {
      if (seen_degree[static_cast<size_t>(u)] > 0) continue;
      int64_t c = result.community_of[static_cast<size_t>(u)];
      const auto& comm = members[static_cast<size_t>(c)];
      if (comm.size() < 2) continue;
      NodeId v;
      do {
        v = comm[rng.UniformInt(comm.size())];
      } while (v == u);
      edges.emplace(std::min(u, v), std::max(u, v));
    }
  }

  // Tiny components: random spanning tree plus one extra edge when size
  // permits (mimics the small 2-7 node components in HetRec Last.fm).
  int64_t next_comm = options.num_communities;
  int64_t next_sub_id = result.num_sub_communities;
  NodeId next_node = main_nodes;
  for (int64_t size : small_sizes) {
    NodeId base = next_node;
    for (int64_t k = 0; k < size; ++k) {
      result.community_of[static_cast<size_t>(base + k)] = next_comm;
      result.sub_community_of[static_cast<size_t>(base + k)] = next_sub_id;
    }
    ++next_sub_id;
    for (int64_t k = 1; k < size; ++k) {
      NodeId parent = base + static_cast<NodeId>(rng.UniformInt(
                                 static_cast<uint64_t>(k)));
      edges.emplace(std::min(base + k, parent), std::max(base + k, parent));
    }
    if (size >= 4 && rng.Bernoulli(0.5)) {
      NodeId a = base + static_cast<NodeId>(
                            rng.UniformInt(static_cast<uint64_t>(size)));
      NodeId b = base + static_cast<NodeId>(
                            rng.UniformInt(static_cast<uint64_t>(size)));
      if (a != b) edges.emplace(std::min(a, b), std::max(a, b));
    }
    next_node += size;
    ++next_comm;
  }

  result.graph = SocialGraph::FromEdges(
      options.num_nodes,
      std::vector<std::pair<NodeId, NodeId>>(edges.begin(), edges.end()));
  result.num_communities = next_comm;
  result.num_sub_communities = next_sub_id;
  return result;
}

}  // namespace privrec::graph
