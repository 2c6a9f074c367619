#include "data/flixster.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/record_reader.h"
#include "graph/components.h"
#include "obs/trace.h"

namespace privrec::data {

namespace {

// The paper's threshold: ratings below 2 are dropped.
constexpr double kMinRating = 2.0;

}  // namespace

Result<Dataset> LoadFlixster(const std::string& dir,
                             const FlixsterOptions& options) {
  PRIVREC_SPAN("data.load_flixster");
  Dataset out;

  // Pass 1: ratings — collect users with >= 1 kept rating and raw edges.
  struct RawRating {
    int64_t user;
    int64_t movie;
    double rating;
  };
  std::vector<RawRating> kept_ratings;
  std::unordered_set<int64_t> rated_users;
  auto ratings = RecordReader::Open(dir + "/ratings.txt", "data.flixster");
  if (!ratings.ok()) return ratings.status();
  while (ratings->Next(3)) {
    int64_t user = 0;
    int64_t movie = 0;
    double rating = 0.0;
    if (!ParseId(ratings->field(0), &user) ||
        !ParseId(ratings->field(1), &movie) ||
        !ParseFinite(ratings->field(2), &rating)) {
      return ratings->Error(
          "expected non-negative integer user and movie ids and a finite "
          "rating");
    }
    if (rating < kMinRating) continue;
    kept_ratings.push_back({user, movie, rating});
    rated_users.insert(user);
  }
  if (!ratings->status().ok()) return ratings->status();

  // Pass 2: social links among rated users.
  std::vector<std::pair<int64_t, int64_t>> raw_links;
  auto links = RecordReader::Open(dir + "/links.txt", "data.flixster");
  if (!links.ok()) return links.status();
  while (links->Next(2)) {
    int64_t a = 0;
    int64_t b = 0;
    if (!ParseId(links->field(0), &a) || !ParseId(links->field(1), &b)) {
      return links->Error("expected two non-negative integer user ids");
    }
    if (a == b) {
      ++out.report.skipped_self_loops;
      continue;
    }
    if (rated_users.count(a) && rated_users.count(b)) {
      raw_links.emplace_back(a, b);
    }
  }
  if (!links->status().ok()) return links->status();
  out.report.lines_scanned = ratings->records() + links->records();
  out.report.records_loaded =
      static_cast<int64_t>(kept_ratings.size() + raw_links.size());

  // Densify the induced user set and build the full induced social graph.
  std::unordered_map<int64_t, graph::NodeId> user_index;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> social_edges;
  auto user_id = [&](int64_t raw) {
    auto [it, inserted] =
        user_index.try_emplace(raw, static_cast<graph::NodeId>(
                                        user_index.size()));
    return it->second;
  };
  for (auto [a, b] : raw_links) {
    graph::NodeId ua = user_id(a);
    graph::NodeId ub = user_id(b);
    social_edges.emplace_back(ua, ub);
  }
  graph::SocialGraph induced = graph::SocialGraph::FromEdges(
      static_cast<graph::NodeId>(user_index.size()), social_edges);

  // Keep the main connected component only.
  graph::ComponentInfo comps = graph::ConnectedComponents(induced);
  std::vector<graph::NodeId> keep;
  for (graph::NodeId u = 0; u < induced.num_nodes(); ++u) {
    if (comps.component_of[static_cast<size_t>(u)] == 0) keep.push_back(u);
  }
  graph::Subgraph main = graph::InducedSubgraph(induced, std::move(keep));

  // Final user id = position in main component; map raw -> final.
  std::unordered_map<int64_t, graph::NodeId> final_user;
  {
    // Invert user_index to recover raw ids of induced nodes.
    std::vector<int64_t> raw_of_induced(user_index.size());
    for (const auto& [raw, idx] : user_index) {
      raw_of_induced[static_cast<size_t>(idx)] = raw;
    }
    for (size_t k = 0; k < main.old_of_new.size(); ++k) {
      final_user[raw_of_induced[static_cast<size_t>(main.old_of_new[k])]] =
          static_cast<graph::NodeId>(k);
    }
  }

  std::unordered_map<int64_t, graph::ItemId> item_index;
  std::vector<graph::PreferenceEdge> pref_edges;
  for (const RawRating& r : kept_ratings) {
    auto uit = final_user.find(r.user);
    if (uit == final_user.end()) continue;
    auto [iit, inserted] = item_index.try_emplace(
        r.movie, static_cast<graph::ItemId>(item_index.size()));
    pref_edges.push_back(
        {uit->second, iit->second, options.binarize ? 1.0 : r.rating});
  }

  out.name = "flixster";
  out.social = std::move(main.graph);
  out.preferences =
      options.binarize
          ? graph::PreferenceGraph::FromEdges(
                out.social.num_nodes(),
                static_cast<graph::ItemId>(item_index.size()),
                [&] {
                  std::vector<std::pair<graph::NodeId, graph::ItemId>> e;
                  e.reserve(pref_edges.size());
                  for (const auto& edge : pref_edges) {
                    e.emplace_back(edge.user, edge.item);
                  }
                  return e;
                }())
          : graph::PreferenceGraph::FromWeightedEdges(
                out.social.num_nodes(),
                static_cast<graph::ItemId>(item_index.size()), pref_edges);
  RecordLoadMetrics(out.report);
  return out;
}

}  // namespace privrec::data
