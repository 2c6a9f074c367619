#include "graph/preference_graph.h"

#include <algorithm>

namespace privrec::graph {

PreferenceGraph PreferenceGraph::FromEdges(
    NodeId num_users, ItemId num_items,
    const std::vector<std::pair<NodeId, ItemId>>& edges) {
  std::vector<PreferenceEdge> weighted;
  weighted.reserve(edges.size());
  for (auto [u, i] : edges) weighted.push_back({u, i, 1.0});
  return Build(num_users, num_items, std::move(weighted),
               /*weighted=*/false);
}

PreferenceGraph PreferenceGraph::FromWeightedEdges(
    NodeId num_users, ItemId num_items,
    const std::vector<PreferenceEdge>& edges) {
  return Build(num_users, num_items, edges, /*weighted=*/true);
}

PreferenceGraph PreferenceGraph::Build(NodeId num_users, ItemId num_items,
                                       std::vector<PreferenceEdge> edges,
                                       bool weighted) {
  PRIVREC_CHECK(num_users >= 0 && num_items >= 0);
  for (const PreferenceEdge& e : edges) {
    PRIVREC_CHECK(e.user >= 0 && e.user < num_users);
    PRIVREC_CHECK(e.item >= 0 && e.item < num_items);
    PRIVREC_CHECK_MSG(e.weight > 0.0, "non-positive edge weight");
  }
  // Sort by (user, item, weight desc) so duplicates keep the largest
  // weight after unique-by-(user, item).
  std::sort(edges.begin(), edges.end(),
            [](const PreferenceEdge& a, const PreferenceEdge& b) {
              if (a.user != b.user) return a.user < b.user;
              if (a.item != b.item) return a.item < b.item;
              return a.weight > b.weight;
            });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const PreferenceEdge& a,
                             const PreferenceEdge& b) {
                            return a.user == b.user && a.item == b.item;
                          }),
              edges.end());

  PreferenceGraph g;
  g.num_users_ = num_users;
  g.num_items_ = num_items;
  g.weighted_ = weighted;
  g.max_weight_ = 1.0;
  for (const PreferenceEdge& e : edges) {
    g.max_weight_ = std::max(g.max_weight_, e.weight);
  }

  g.user_offsets_.assign(static_cast<size_t>(num_users) + 1, 0);
  g.item_offsets_.assign(static_cast<size_t>(num_items) + 1, 0);
  for (const PreferenceEdge& e : edges) {
    ++g.user_offsets_[static_cast<size_t>(e.user) + 1];
    ++g.item_offsets_[static_cast<size_t>(e.item) + 1];
  }
  for (size_t k = 1; k < g.user_offsets_.size(); ++k) {
    g.user_offsets_[k] += g.user_offsets_[k - 1];
  }
  for (size_t k = 1; k < g.item_offsets_.size(); ++k) {
    g.item_offsets_[k] += g.item_offsets_[k - 1];
  }

  g.user_items_.resize(edges.size());
  g.user_weights_.resize(edges.size());
  g.item_users_.resize(edges.size());
  g.item_weights_.resize(edges.size());
  std::vector<size_t> ucur(g.user_offsets_.begin(), g.user_offsets_.end() - 1);
  std::vector<size_t> icur(g.item_offsets_.begin(), g.item_offsets_.end() - 1);
  for (const PreferenceEdge& e : edges) {
    size_t up = ucur[static_cast<size_t>(e.user)]++;
    g.user_items_[up] = e.item;
    g.user_weights_[up] = e.weight;
    size_t ip = icur[static_cast<size_t>(e.item)]++;
    g.item_users_[ip] = e.user;
    g.item_weights_[ip] = e.weight;
  }
  // User-major sorted input => both orientations already sorted per row
  // (user rows by construction; item rows receive users in ascending order
  // because the outer scan is user-major).
  return g;
}

double PreferenceGraph::Weight(NodeId u, ItemId i) const {
  auto items = ItemsOf(u);
  auto it = std::lower_bound(items.begin(), items.end(), i);
  if (it == items.end() || *it != i) return 0.0;
  return WeightsOf(u)[static_cast<size_t>(it - items.begin())];
}

PreferenceGraph PreferenceGraph::WithEdge(NodeId u, ItemId i,
                                          double w) const {
  auto edges = WeightedEdges();
  std::erase_if(edges, [&](const PreferenceEdge& e) {
    return e.user == u && e.item == i;
  });
  edges.push_back({u, i, w});
  return Build(num_users_, num_items_, std::move(edges),
               weighted_ || w != 1.0);
}

PreferenceGraph PreferenceGraph::WithoutEdge(NodeId u, ItemId i) const {
  auto edges = WeightedEdges();
  std::erase_if(edges, [&](const PreferenceEdge& e) {
    return e.user == u && e.item == i;
  });
  return Build(num_users_, num_items_, std::move(edges), weighted_);
}

std::vector<PreferenceEdge> PreferenceGraph::WeightedEdges() const {
  std::vector<PreferenceEdge> out;
  out.reserve(user_items_.size());
  for (NodeId u = 0; u < num_users_; ++u) {
    auto items = ItemsOf(u);
    auto weights = WeightsOf(u);
    for (size_t k = 0; k < items.size(); ++k) {
      out.push_back({u, items[k], weights[k]});
    }
  }
  return out;
}

std::vector<std::pair<NodeId, ItemId>> PreferenceGraph::Edges() const {
  std::vector<std::pair<NodeId, ItemId>> out;
  out.reserve(user_items_.size());
  for (NodeId u = 0; u < num_users_; ++u) {
    for (ItemId i : ItemsOf(u)) out.emplace_back(u, i);
  }
  return out;
}

double PreferenceGraph::AverageUserDegree() const {
  if (num_users_ == 0) return 0.0;
  return static_cast<double>(num_edges()) / static_cast<double>(num_users_);
}

double PreferenceGraph::Sparsity() const {
  if (num_users_ == 0 || num_items_ == 0) return 1.0;
  return 1.0 - static_cast<double>(num_edges()) /
                   (static_cast<double>(num_users_) *
                    static_cast<double>(num_items_));
}

}  // namespace privrec::graph
