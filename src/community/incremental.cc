#include "community/incremental.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace privrec::community {

IncrementalCommunity::IncrementalCommunity(
    graph::NodeId num_nodes, const IncrementalCommunityOptions& options)
    : options_(options),
      adj_(static_cast<size_t>(num_nodes)),
      label_(static_cast<size_t>(num_nodes)),
      intra_(static_cast<size_t>(num_nodes), 0),
      degsum_(static_cast<size_t>(num_nodes), 0) {
  PRIVREC_CHECK(num_nodes > 0);
  PRIVREC_CHECK(options.drift_threshold > 0.0);
  for (size_t i = 0; i < label_.size(); ++i) {
    label_[i] = static_cast<int64_t>(i);
  }
}

double IncrementalCommunity::modularity() const {
  if (m_ == 0) return 0.0;
  const double m = static_cast<double>(m_);
  const double gamma = options_.louvain.resolution;
  double q = 0.0;
  for (size_t c = 0; c < intra_.size(); ++c) {
    if (degsum_[c] == 0 && intra_[c] == 0) continue;
    const double frac = static_cast<double>(degsum_[c]) / (2.0 * m);
    q += static_cast<double>(intra_[c]) / m - gamma * frac * frac;
  }
  return q;
}

double IncrementalCommunity::drift() const {
  const double d = baseline_ - modularity();
  return d > 0.0 ? d : 0.0;
}

int64_t IncrementalCommunity::LinksInto(graph::NodeId x, int64_t c) const {
  int64_t links = 0;
  for (graph::NodeId y : adj_[static_cast<size_t>(x)]) {
    if (label_[static_cast<size_t>(y)] == c) ++links;
  }
  return links;
}

double IncrementalCommunity::MoveGain(graph::NodeId x, int64_t to) const {
  const int64_t from = label_[static_cast<size_t>(x)];
  if (to == from || m_ == 0) return 0.0;
  const double m = static_cast<double>(m_);
  const double k_x =
      static_cast<double>(adj_[static_cast<size_t>(x)].size());
  const double k_to = static_cast<double>(LinksInto(x, to));
  const double k_from = static_cast<double>(LinksInto(x, from));
  const double dsum_to = static_cast<double>(degsum_[static_cast<size_t>(to)]);
  const double dsum_from =
      static_cast<double>(degsum_[static_cast<size_t>(from)]);
  return (k_to - k_from) / m -
         options_.louvain.resolution * k_x *
             (dsum_to - dsum_from + k_x) / (2.0 * m * m);
}

void IncrementalCommunity::ApplyMove(graph::NodeId x, int64_t to) {
  const int64_t from = label_[static_cast<size_t>(x)];
  intra_[static_cast<size_t>(from)] -= LinksInto(x, from);
  degsum_[static_cast<size_t>(from)] -=
      static_cast<int64_t>(adj_[static_cast<size_t>(x)].size());
  label_[static_cast<size_t>(x)] = to;
  intra_[static_cast<size_t>(to)] += LinksInto(x, to);
  degsum_[static_cast<size_t>(to)] +=
      static_cast<int64_t>(adj_[static_cast<size_t>(x)].size());
  ++local_moves_;
}

void IncrementalCommunity::TryLocalMove(graph::NodeId x) {
  if (m_ == 0 || adj_[static_cast<size_t>(x)].empty()) return;
  // Candidate clusters = neighboring labels, visited in label order so the
  // winner (ties included) is deterministic.
  std::set<int64_t> candidates;
  for (graph::NodeId y : adj_[static_cast<size_t>(x)]) {
    candidates.insert(label_[static_cast<size_t>(y)]);
  }
  int64_t best_to = label_[static_cast<size_t>(x)];
  double best_gain = kMinModularityGain;
  for (int64_t c : candidates) {
    const double gain = MoveGain(x, c);
    if (gain > best_gain) {
      best_gain = gain;
      best_to = c;
    }
  }
  if (best_to != label_[static_cast<size_t>(x)]) ApplyMove(x, best_to);
}

void IncrementalCommunity::AddEdge(graph::NodeId u, graph::NodeId v) {
  PRIVREC_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  PRIVREC_CHECK(u != v);
  if (!adj_[static_cast<size_t>(u)].insert(v).second) return;
  adj_[static_cast<size_t>(v)].insert(u);
  ++m_;
  ++degsum_[static_cast<size_t>(label_[static_cast<size_t>(u)])];
  ++degsum_[static_cast<size_t>(label_[static_cast<size_t>(v)])];
  if (label_[static_cast<size_t>(u)] == label_[static_cast<size_t>(v)]) {
    ++intra_[static_cast<size_t>(label_[static_cast<size_t>(u)])];
  }
  TryLocalMove(u);
  TryLocalMove(v);
  MaybeRestart();
  PublishGauges();
}

void IncrementalCommunity::RemoveEdge(graph::NodeId u, graph::NodeId v) {
  PRIVREC_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  PRIVREC_CHECK(u != v);
  if (adj_[static_cast<size_t>(u)].erase(v) == 0) return;
  adj_[static_cast<size_t>(v)].erase(u);
  --m_;
  --degsum_[static_cast<size_t>(label_[static_cast<size_t>(u)])];
  --degsum_[static_cast<size_t>(label_[static_cast<size_t>(v)])];
  if (label_[static_cast<size_t>(u)] == label_[static_cast<size_t>(v)]) {
    --intra_[static_cast<size_t>(label_[static_cast<size_t>(u)])];
  }
  TryLocalMove(u);
  TryLocalMove(v);
  MaybeRestart();
  PublishGauges();
}

graph::SocialGraph IncrementalCommunity::BuildGraph() const {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  edges.reserve(static_cast<size_t>(m_));
  for (size_t u = 0; u < adj_.size(); ++u) {
    for (graph::NodeId v : adj_[u]) {
      if (static_cast<graph::NodeId>(u) < v) {
        edges.emplace_back(static_cast<graph::NodeId>(u), v);
      }
    }
  }
  return graph::SocialGraph::FromEdges(num_nodes(), edges);
}

void IncrementalCommunity::ForceRestart() {
  LouvainOptions louvain = options_.louvain;
  louvain.seed =
      SplitMix64(options_.seed ^ static_cast<uint64_t>(full_restarts_));
  const LouvainResult result = RunLouvain(BuildGraph(), louvain);
  label_ = result.partition.cluster_of();
  std::fill(intra_.begin(), intra_.end(), 0);
  std::fill(degsum_.begin(), degsum_.end(), 0);
  for (size_t u = 0; u < adj_.size(); ++u) {
    const int64_t c = label_[u];
    degsum_[static_cast<size_t>(c)] +=
        static_cast<int64_t>(adj_[u].size());
    for (graph::NodeId v : adj_[u]) {
      if (static_cast<graph::NodeId>(u) < v &&
          label_[static_cast<size_t>(v)] == c) {
        ++intra_[static_cast<size_t>(c)];
      }
    }
  }
  baseline_ = modularity();
  ++full_restarts_;
  static obs::Counter& restarts =
      obs::GetCounter("privrec.stream.community_restarts");
  restarts.Increment();
}

void IncrementalCommunity::MaybeRestart() {
  if (m_ == 0) return;
  if (drift() > options_.drift_threshold) ForceRestart();
}

void IncrementalCommunity::PublishGauges() const {
  static obs::Gauge& q = obs::GetGauge("privrec.stream.community_modularity");
  static obs::Gauge& d = obs::GetGauge("privrec.stream.community_drift");
  static obs::Gauge& moves =
      obs::GetGauge("privrec.stream.community_local_moves");
  q.Set(modularity());
  d.Set(drift());
  moves.Set(static_cast<double>(local_moves_));
}

}  // namespace privrec::community
