#include "community/louvain.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "community/modularity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::community {

namespace {

// Weighted multigraph used for the contracted levels. Self loops are kept
// separately; a self loop of weight w contributes 2w to the node's degree.
struct WeightedGraph {
  int64_t n = 0;
  std::vector<std::vector<std::pair<int64_t, double>>> adj;
  std::vector<double> self_loop;
  double two_m = 0.0;  // Σ_u k_u

  double NodeDegree(int64_t u) const {
    double k = 2.0 * self_loop[static_cast<size_t>(u)];
    for (auto [v, w] : adj[static_cast<size_t>(u)]) k += w;
    return k;
  }
};

WeightedGraph FromSocialGraph(const graph::SocialGraph& g) {
  WeightedGraph wg;
  wg.n = g.num_nodes();
  wg.adj.resize(static_cast<size_t>(wg.n));
  wg.self_loop.assign(static_cast<size_t>(wg.n), 0.0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nbrs = g.Neighbors(u);
    wg.adj[static_cast<size_t>(u)].reserve(nbrs.size());
    for (graph::NodeId v : nbrs) {
      wg.adj[static_cast<size_t>(u)].emplace_back(v, 1.0);
    }
  }
  wg.two_m = 2.0 * static_cast<double>(g.num_edges());
  return wg;
}

// Safety cap on local-moving sweeps per level.
constexpr int kMaxSweeps = 64;

// One round of local moving. `comm` is the in/out community assignment
// (labels in [0, n)); returns the total modularity gain achieved.
double LocalMove(const WeightedGraph& g, std::vector<int64_t>* comm,
                 Rng* rng, double resolution) {
  const int64_t n = g.n;
  if (n == 0 || g.two_m == 0.0) return 0.0;
  const double two_m = g.two_m;

  std::vector<double> degree(static_cast<size_t>(n));
  std::vector<double> sigma_tot(static_cast<size_t>(n), 0.0);
  for (int64_t u = 0; u < n; ++u) {
    degree[static_cast<size_t>(u)] = g.NodeDegree(u);
    sigma_tot[static_cast<size_t>((*comm)[static_cast<size_t>(u)])] +=
        degree[static_cast<size_t>(u)];
  }

  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(order);

  // Dense scratch for neighbor-community weights.
  std::vector<double> weight_to(static_cast<size_t>(n), 0.0);
  std::vector<int64_t> touched;

  double total_gain = 0.0;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool moved = false;
    for (int64_t idx = 0; idx < n; ++idx) {
      int64_t u = order[static_cast<size_t>(idx)];
      int64_t cu = (*comm)[static_cast<size_t>(u)];
      double ku = degree[static_cast<size_t>(u)];

      // Accumulate edge weight from u to each adjacent community.
      touched.clear();
      for (auto [v, w] : g.adj[static_cast<size_t>(u)]) {
        if (v == u) continue;
        int64_t cv = (*comm)[static_cast<size_t>(v)];
        if (weight_to[static_cast<size_t>(cv)] == 0.0) touched.push_back(cv);
        weight_to[static_cast<size_t>(cv)] += w;
      }

      // Detach u from its community for the gain comparison.
      sigma_tot[static_cast<size_t>(cu)] -= ku;
      double best_gain =
          weight_to[static_cast<size_t>(cu)] -
          resolution * sigma_tot[static_cast<size_t>(cu)] * ku / two_m;
      int64_t best_comm = cu;
      for (int64_t c : touched) {
        if (c == cu) continue;
        double gain =
            weight_to[static_cast<size_t>(c)] -
            resolution * sigma_tot[static_cast<size_t>(c)] * ku / two_m;
        if (gain > best_gain + kMinModularityGain) {
          best_gain = gain;
          best_comm = c;
        }
      }
      sigma_tot[static_cast<size_t>(best_comm)] += ku;
      if (best_comm != cu) {
        double old_gain =
            weight_to[static_cast<size_t>(cu)] -
            resolution * sigma_tot[static_cast<size_t>(cu)] * ku / two_m;
        (*comm)[static_cast<size_t>(u)] = best_comm;
        moved = true;
        total_gain += 2.0 * (best_gain - old_gain) / two_m;
      }
      for (int64_t c : touched) weight_to[static_cast<size_t>(c)] = 0.0;
    }
    if (!moved) break;
  }
  return total_gain;
}

// Compacts community labels to [0, k) and returns k.
int64_t CompactLabels(std::vector<int64_t>* comm) {
  std::unordered_map<int64_t, int64_t> dense;
  for (int64_t& c : *comm) {
    auto [it, inserted] =
        dense.try_emplace(c, static_cast<int64_t>(dense.size()));
    c = it->second;
  }
  return static_cast<int64_t>(dense.size());
}

// Contracts communities into super-nodes.
WeightedGraph Contract(const WeightedGraph& g,
                       const std::vector<int64_t>& comm,
                       int64_t num_comms) {
  WeightedGraph out;
  out.n = num_comms;
  out.adj.resize(static_cast<size_t>(num_comms));
  out.self_loop.assign(static_cast<size_t>(num_comms), 0.0);
  out.two_m = g.two_m;

  // Aggregate with per-row dense scratch.
  std::vector<double> weight_to(static_cast<size_t>(num_comms), 0.0);
  std::vector<int64_t> touched;
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(num_comms));
  for (int64_t u = 0; u < g.n; ++u) {
    members[static_cast<size_t>(comm[static_cast<size_t>(u)])].push_back(u);
  }
  for (int64_t c = 0; c < num_comms; ++c) {
    double self = 0.0;
    touched.clear();
    for (int64_t u : members[static_cast<size_t>(c)]) {
      self += g.self_loop[static_cast<size_t>(u)];
      for (auto [v, w] : g.adj[static_cast<size_t>(u)]) {
        int64_t cv = comm[static_cast<size_t>(v)];
        if (cv == c) {
          self += w * 0.5;  // each intra edge visited from both endpoints
        } else {
          if (weight_to[static_cast<size_t>(cv)] == 0.0) {
            touched.push_back(cv);
          }
          weight_to[static_cast<size_t>(cv)] += w;
        }
      }
    }
    out.self_loop[static_cast<size_t>(c)] = self;
    for (int64_t cv : touched) {
      out.adj[static_cast<size_t>(c)].emplace_back(
          cv, weight_to[static_cast<size_t>(cv)]);
      weight_to[static_cast<size_t>(cv)] = 0.0;
    }
  }
  return out;
}

struct SingleRunResult {
  std::vector<int64_t> assignment;  // per original node
  int levels = 0;
};

SingleRunResult RunOnce(const graph::SocialGraph& g,
                        const LouvainOptions& options, Rng rng) {
  WeightedGraph level_graph = FromSocialGraph(g);
  // Level graphs and the node->community maps between consecutive levels,
  // kept for the refinement walk back down.
  std::vector<WeightedGraph> graphs;
  std::vector<std::vector<int64_t>> level_comms;

  // Per-level gain of the local-moving pass: the modularity improvement
  // each contraction level contributed (observation only — never feeds
  // back into the optimization).
  static obs::Histogram& level_gain_hist = obs::GetHistogram(
      "privrec.community.level_gain",
      std::vector<double>{0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0});
  static obs::Counter& passes =
      obs::GetCounter("privrec.community.local_move_passes");

  SingleRunResult result;
  while (true) {
    PRIVREC_SPAN_CHUNK("community.louvain.level", result.levels);
    std::vector<int64_t> comm(static_cast<size_t>(level_graph.n));
    std::iota(comm.begin(), comm.end(), 0);
    double gain = LocalMove(level_graph, &comm, &rng, options.resolution);
    level_gain_hist.Observe(gain);
    passes.Increment();
    int64_t k = CompactLabels(&comm);
    graphs.push_back(level_graph);
    level_comms.push_back(comm);
    ++result.levels;
    if (k == level_graph.n || gain <= kMinModularityGain) break;
    level_graph = Contract(level_graph, comm, k);
  }

  if (options.refine) {
    // Walk the hierarchy top-down: project the partition of level l+1 onto
    // level l's graph and re-run local moving there.
    for (int64_t l = static_cast<int64_t>(level_comms.size()) - 2; l >= 0;
         --l) {
      std::vector<int64_t>& lower = level_comms[static_cast<size_t>(l)];
      const std::vector<int64_t>& upper =
          level_comms[static_cast<size_t>(l) + 1];
      for (int64_t& c : lower) {
        c = upper[static_cast<size_t>(c)];
      }
      CompactLabels(&lower);
      LocalMove(graphs[static_cast<size_t>(l)], &lower, &rng,
                options.resolution);
      CompactLabels(&lower);
      // The refined labels at this level already incorporate every level
      // above; truncate so the composition below does not re-apply them.
      level_comms.resize(static_cast<size_t>(l) + 1);
    }
  }

  // Compose assignments down to the original nodes.
  std::vector<int64_t> assignment = level_comms[0];
  for (size_t l = 1; l < level_comms.size(); ++l) {
    for (int64_t& c : assignment) {
      c = level_comms[l][static_cast<size_t>(c)];
    }
  }
  CompactLabels(&assignment);
  result.assignment = std::move(assignment);
  return result;
}

}  // namespace

LouvainResult RunLouvain(const graph::SocialGraph& g,
                         const LouvainOptions& options) {
  PRIVREC_SPAN("community.louvain");
  PRIVREC_CHECK(options.restarts >= 1);
  Rng master(options.seed);

  LouvainResult best;
  best.modularity = -2.0;  // below the Q >= -1/2 lower bound
  for (int r = 0; r < options.restarts; ++r) {
    PRIVREC_SPAN_CHUNK("community.louvain.restart", r);
    SingleRunResult run =
        RunOnce(g, options, master.Fork(static_cast<uint64_t>(r)));
    Partition partition(run.assignment);
    // Restarts compete on the configured objective; the reported
    // `modularity` is always the standard (resolution 1) value.
    double q = GeneralizedModularity(g, partition, options.resolution);
    if (q > best.modularity) {
      best.modularity = q;
      best.partition = std::move(partition);
      best.levels = run.levels;
    }
  }
  best.modularity = Modularity(g, best.partition);

  static obs::Counter& runs =
      obs::GetCounter("privrec.community.louvain_runs");
  static obs::Counter& levels =
      obs::GetCounter("privrec.community.levels");
  static obs::Gauge& modularity =
      obs::GetGauge("privrec.community.modularity");
  static obs::Gauge& clusters =
      obs::GetGauge("privrec.community.clusters");
  runs.Increment();
  levels.Add(best.levels);
  modularity.Set(best.modularity);
  clusters.Set(static_cast<double>(best.partition.num_clusters()));
  return best;
}

}  // namespace privrec::community
