#include "graph/graph_io.h"

#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/record_reader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::graph {

namespace {

// Densifies raw ids in first-appearance order.
class IdMap {
 public:
  int64_t Map(int64_t raw) {
    auto [it, inserted] = index_.try_emplace(raw, next_);
    if (inserted) {
      original_.push_back(raw);
      ++next_;
    }
    return it->second;
  }
  std::vector<int64_t> TakeOriginals() { return std::move(original_); }
  int64_t size() const { return next_; }

 private:
  std::unordered_map<int64_t, int64_t> index_;
  std::vector<int64_t> original_;
  int64_t next_ = 0;
};

// Opens `path` for an edge-list load, with the loaders' allocation fault.
Result<RecordReader> OpenEdgeList(const std::string& path) {
  auto reader = RecordReader::Open(path, "graph_io");
  if (reader.ok() &&
      fault::Hit("graph_io.alloc") == fault::FaultKind::kBadAlloc) {
    return Status::ResourceExhausted("edge buffer allocation failed for " +
                                     path + " (injected fault)");
  }
  return reader;
}

Result<LoadedSocialGraph> ReadSocialGraph(const std::string& path) {
  auto reader = OpenEdgeList(path);
  if (!reader.ok()) return reader.status();
  IdMap ids;
  std::vector<std::pair<NodeId, NodeId>> edges;
  while (reader->Next(2)) {
    int64_t a = 0;
    int64_t b = 0;
    if (!ParseId(reader->field(0), &a) || !ParseId(reader->field(1), &b)) {
      return reader->Error("expected two non-negative integer node ids");
    }
    if (a == b) return reader->Error("self loop on node " + std::to_string(a));
    // Sequence the id assignments explicitly (argument evaluation order is
    // unspecified) so ids follow first appearance in the file.
    NodeId ua = ids.Map(a);
    NodeId ub = ids.Map(b);
    edges.emplace_back(ua, ub);
  }
  if (!reader->status().ok()) return reader->status();
  if (Status s = reader->CheckHeaderCount(
          "edges", static_cast<int64_t>(edges.size()));
      !s.ok()) {
    return s;
  }
  LoadedSocialGraph out;
  out.report.lines_scanned = reader->records();
  out.report.records_loaded = static_cast<int64_t>(edges.size());
  out.graph = SocialGraph::FromEdges(ids.size(), edges);
  out.original_id = ids.TakeOriginals();
  return out;
}

Result<LoadedPreferenceGraph> ReadPreferenceGraph(const std::string& path) {
  auto reader = OpenEdgeList(path);
  if (!reader.ok()) return reader.status();
  IdMap users;
  IdMap items;
  std::vector<PreferenceEdge> edges;
  bool any_weighted = false;
  while (reader->Next(2)) {
    int64_t raw_user = 0;
    int64_t raw_item = 0;
    if (!ParseId(reader->field(0), &raw_user) ||
        !ParseId(reader->field(1), &raw_item)) {
      return reader->Error("expected non-negative integer user and item ids");
    }
    double weight = 1.0;
    if (reader->num_fields() >= 3) {
      if (!ParseFinite(reader->field(2), &weight) || weight <= 0.0) {
        return reader->Error("bad weight (want a positive finite number)");
      }
      any_weighted = true;
    }
    NodeId user = users.Map(raw_user);
    ItemId item = items.Map(raw_item);
    edges.push_back({user, item, weight});
  }
  if (!reader->status().ok()) return reader->status();
  if (Status s = reader->CheckHeaderCount(
          "edges", static_cast<int64_t>(edges.size()));
      !s.ok()) {
    return s;
  }
  LoadedPreferenceGraph out;
  out.report.lines_scanned = reader->records();
  out.report.records_loaded = static_cast<int64_t>(edges.size());
  if (any_weighted) {
    out.graph =
        PreferenceGraph::FromWeightedEdges(users.size(), items.size(), edges);
  } else {
    std::vector<std::pair<NodeId, ItemId>> unweighted;
    unweighted.reserve(edges.size());
    for (const PreferenceEdge& e : edges) {
      unweighted.emplace_back(e.user, e.item);
    }
    out.graph = PreferenceGraph::FromEdges(users.size(), items.size(),
                                           unweighted);
  }
  out.original_user_id = users.TakeOriginals();
  out.original_item_id = items.TakeOriginals();
  return out;
}

// Counts a finished load into privrec.data.*.
template <typename Loaded>
Result<Loaded> Recorded(Result<Loaded> result) {
  if (result.ok()) {
    RecordLoadMetrics(result->report);
  } else {
    static obs::Counter& failed =
        obs::GetCounter("privrec.data.failed_loads");
    failed.Increment();
  }
  return result;
}

}  // namespace

Result<LoadedSocialGraph> LoadSocialGraph(const std::string& path) {
  PRIVREC_SPAN("graph.load_social");
  return Recorded(ReadSocialGraph(path));
}

Result<LoadedPreferenceGraph> LoadPreferenceGraph(const std::string& path) {
  PRIVREC_SPAN("graph.load_preferences");
  return Recorded(ReadPreferenceGraph(path));
}

Status SaveSocialGraph(const SocialGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# privrec social graph: " << g.num_nodes() << " nodes, "
      << g.num_edges() << " edges\n";
  for (auto [u, v] : g.Edges()) out << u << '\t' << v << '\n';
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

Status SavePreferenceGraph(const PreferenceGraph& g,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# privrec preference graph: " << g.num_users() << " users, "
      << g.num_items() << " items, " << g.num_edges() << " edges"
      << (g.is_weighted() ? " (weighted)" : "") << '\n';
  if (g.is_weighted()) {
    for (const PreferenceEdge& e : g.WeightedEdges()) {
      out << e.user << '\t' << e.item << '\t' << e.weight << '\n';
    }
  } else {
    for (auto [u, i] : g.Edges()) out << u << '\t' << i << '\n';
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

}  // namespace privrec::graph
