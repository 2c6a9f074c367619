// PreferenceGraph: the paper's G_p = (U, I, E_p) — a bipartite graph of
// directed preference edges from users to items (Definition 2).
//
// The paper's main model is unweighted (w(u, i) = 1); its stated
// extension — weighted edges such as ratings — is supported too: build
// with FromWeightedEdges and the recommenders automatically scale their
// sensitivities by max_weight() (one edge can shift any aggregate by at
// most its largest allowed weight).
//
// This is the *private* input: only the DP mechanism stages of the
// recommenders (and the non-private ExactRecommender used as the accuracy
// reference) may read it.
//
// Both orientations are stored: user -> items (for utility queries that
// scan a user's preferences) and item -> users (for per-item aggregation in
// Algorithm 1 and the attack analyses).

#ifndef PRIVREC_GRAPH_PREFERENCE_GRAPH_H_
#define PRIVREC_GRAPH_PREFERENCE_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "graph/ids.h"
#include "graph/social_graph.h"

namespace privrec::graph {

// One weighted preference edge (used by the weighted builder).
struct PreferenceEdge {
  NodeId user;
  ItemId item;
  double weight;

  friend bool operator==(const PreferenceEdge&,
                         const PreferenceEdge&) = default;
};

class PreferenceGraph {
 public:
  PreferenceGraph() = default;

  // Builds an unweighted graph from (user, item) pairs; duplicates are
  // collapsed. Every edge has weight 1 and max_weight() == 1.
  static PreferenceGraph FromEdges(
      NodeId num_users, ItemId num_items,
      const std::vector<std::pair<NodeId, ItemId>>& edges);

  // Builds a weighted graph. Weights must be positive; duplicate (user,
  // item) pairs keep the largest weight. max_weight() is the largest
  // weight present (at least 1 so unweighted-style sensitivities remain
  // valid on empty graphs).
  static PreferenceGraph FromWeightedEdges(
      NodeId num_users, ItemId num_items,
      const std::vector<PreferenceEdge>& edges);

  NodeId num_users() const { return num_users_; }
  ItemId num_items() const { return num_items_; }
  int64_t num_edges() const { return static_cast<int64_t>(user_items_.size()); }

  // Items preferred by user u (sorted ascending).
  std::span<const ItemId> ItemsOf(NodeId u) const {
    PRIVREC_DCHECK(u >= 0 && u < num_users_);
    return {user_items_.data() + user_offsets_[static_cast<size_t>(u)],
            user_items_.data() + user_offsets_[static_cast<size_t>(u) + 1]};
  }

  // Weights aligned with ItemsOf(u).
  std::span<const double> WeightsOf(NodeId u) const {
    PRIVREC_DCHECK(u >= 0 && u < num_users_);
    return {user_weights_.data() + user_offsets_[static_cast<size_t>(u)],
            user_weights_.data() +
                user_offsets_[static_cast<size_t>(u) + 1]};
  }

  // Users who prefer item i (sorted ascending).
  std::span<const NodeId> UsersOf(ItemId i) const {
    PRIVREC_DCHECK(i >= 0 && i < num_items_);
    return {item_users_.data() + item_offsets_[static_cast<size_t>(i)],
            item_users_.data() + item_offsets_[static_cast<size_t>(i) + 1]};
  }

  // Weights aligned with UsersOf(i).
  std::span<const double> ItemWeights(ItemId i) const {
    PRIVREC_DCHECK(i >= 0 && i < num_items_);
    return {item_weights_.data() + item_offsets_[static_cast<size_t>(i)],
            item_weights_.data() +
                item_offsets_[static_cast<size_t>(i) + 1]};
  }

  int64_t UserDegree(NodeId u) const {
    return static_cast<int64_t>(ItemsOf(u).size());
  }
  int64_t ItemDegree(ItemId i) const {
    return static_cast<int64_t>(UsersOf(i).size());
  }

  // w(u, i): the edge weight, or 0 if the edge is absent.
  double Weight(NodeId u, ItemId i) const;

  // The largest edge weight present (>= 1.0 by convention): the per-edge
  // sensitivity bound the DP mechanisms calibrate against.
  double max_weight() const { return max_weight_; }
  bool is_weighted() const { return weighted_; }

  // Returns a copy with edge (u, i) of weight `w` added (replacing any
  // existing weight). Used by privacy tests to build neighboring
  // databases.
  PreferenceGraph WithEdge(NodeId u, ItemId i, double w = 1.0) const;
  // Returns a copy with edge (u, i) removed (no-op if absent).
  PreferenceGraph WithoutEdge(NodeId u, ItemId i) const;

  // All edges in user-major order (weight 1 for unweighted graphs).
  std::vector<PreferenceEdge> WeightedEdges() const;
  // Unweighted view of the edges.
  std::vector<std::pair<NodeId, ItemId>> Edges() const;

  double AverageUserDegree() const;

  // 1 - |E_p| / (|U| * |I|), as reported in Table 1.
  double Sparsity() const;

 private:
  static PreferenceGraph Build(NodeId num_users, ItemId num_items,
                               std::vector<PreferenceEdge> edges,
                               bool weighted);

  NodeId num_users_ = 0;
  ItemId num_items_ = 0;
  bool weighted_ = false;
  double max_weight_ = 1.0;
  std::vector<size_t> user_offsets_ = {0};
  std::vector<ItemId> user_items_;
  std::vector<double> user_weights_;
  std::vector<size_t> item_offsets_ = {0};
  std::vector<NodeId> item_users_;
  std::vector<double> item_weights_;
};

}  // namespace privrec::graph

#endif  // PRIVREC_GRAPH_PREFERENCE_GRAPH_H_
