#include "data/export.h"

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string_view>
#include <utility>
#include <vector>

#include "common/record_reader.h"
#include "graph/graph_io.h"

namespace privrec::data {

Status SaveDataset(const Dataset& dataset, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);

  Status s = graph::SaveSocialGraph(dataset.social, dir + "/social.tsv");
  if (!s.ok()) return s;
  s = graph::SavePreferenceGraph(dataset.preferences,
                                 dir + "/preferences.tsv");
  if (!s.ok()) return s;

  std::ofstream meta(dir + "/meta.txt");
  if (!meta) return Status::IoError("cannot open " + dir + "/meta.txt");
  meta << "name\t" << dataset.name << '\n'
       << "num_users\t" << dataset.social.num_nodes() << '\n'
       << "num_items\t" << dataset.preferences.num_items() << '\n'
       << "weighted\t" << (dataset.preferences.is_weighted() ? 1 : 0)
       << '\n';
  if (!meta) return Status::IoError("write failed for meta.txt");
  return Status::Ok();
}

namespace {

// Reads meta.txt: the dataset's name and the sizes that fix its node and
// item universe.
Status ReadMeta(const std::string& path, std::string* name,
                int64_t* num_users, int64_t* num_items) {
  auto reader = RecordReader::Open(path, "data.export");
  if (!reader.ok()) return reader.status();
  *num_users = -1;
  *num_items = -1;
  while (reader->Next()) {
    const std::string_view key = reader->field(0);
    if (key == "name") {
      *name = reader->num_fields() > 1 ? std::string(reader->field(1)) : "";
    } else if (key == "num_users" || key == "num_items") {
      int64_t* size = key == "num_users" ? num_users : num_items;
      if (reader->num_fields() < 2 || !ParseId(reader->field(1), size)) {
        return reader->Error("bad " + std::string(key));
      }
    }
  }
  if (!reader->status().ok()) return reader->status();
  if (*num_users < 0 || *num_items < 0) {
    return Status::ParseError(path + ": missing sizes");
  }
  return Status::Ok();
}

// Opens one of the edge files and checks its header against meta.txt:
// each `unit` the header counts must equal its meta.txt size, and it must
// count its edges (CheckHeaderCount holds the records to that count).
Result<RecordReader> OpenEdgeFile(
    const std::string& path,
    std::initializer_list<std::pair<std::string_view, int64_t>> sizes) {
  auto reader = RecordReader::Open(path, "data.export");
  if (!reader.ok()) return reader.status();
  int64_t edges = 0;
  if (!reader->HeaderCount("edges", &edges)) {
    return Status::ParseError(path + ": missing or bad header");
  }
  for (auto [unit, expected] : sizes) {
    int64_t count = 0;
    if (!reader->HeaderCount(unit, &count) || count != expected) {
      return Status::ParseError(path + ": header does not match meta.txt (" +
                                std::to_string(expected) + " " +
                                std::string(unit) + ")");
    }
  }
  return reader;
}

}  // namespace

Result<Dataset> LoadDataset(const std::string& dir) {
  // Meta first: it fixes the node/item universe, which each edge file's
  // header must repeat before anything is sized from it.
  std::string name;
  int64_t num_users = 0;
  int64_t num_items = 0;
  Status meta = ReadMeta(dir + "/meta.txt", &name, &num_users, &num_items);
  if (!meta.ok()) return meta;

  // Social edges: ids in the saved format are already dense in
  // [0, num_users).
  auto social = OpenEdgeFile(dir + "/social.tsv", {{"nodes", num_users}});
  if (!social.ok()) return social.status();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> social_edges;
  while (social->Next(2)) {
    int64_t a = 0;
    int64_t b = 0;
    if (!ParseId(social->field(0), &a) || !ParseId(social->field(1), &b)) {
      return social->Error("bad edge");
    }
    if (a >= num_users || b >= num_users) {
      return social->Error("node outside meta range");
    }
    if (a == b) return social->Error("self loop on node " + std::to_string(a));
    social_edges.emplace_back(a, b);
  }
  if (!social->status().ok()) return social->status();
  if (Status s = social->CheckHeaderCount(
          "edges", static_cast<int64_t>(social_edges.size()));
      !s.ok()) {
    return s;
  }

  auto prefs = OpenEdgeFile(dir + "/preferences.tsv",
                            {{"users", num_users}, {"items", num_items}});
  if (!prefs.ok()) return prefs.status();
  std::vector<graph::PreferenceEdge> pref_edges;
  bool weighted = false;
  while (prefs->Next(2)) {
    int64_t u = 0;
    int64_t i = 0;
    double w = 1.0;
    if (!ParseId(prefs->field(0), &u) || !ParseId(prefs->field(1), &i)) {
      return prefs->Error("bad edge");
    }
    if (prefs->num_fields() >= 3) {
      if (!ParseFinite(prefs->field(2), &w) || w <= 0.0) {
        return prefs->Error("bad weight");
      }
      weighted = true;
    }
    if (u >= num_users || i >= num_items) {
      return prefs->Error("id outside meta range");
    }
    pref_edges.push_back({u, i, w});
  }
  if (!prefs->status().ok()) return prefs->status();
  if (Status s = prefs->CheckHeaderCount(
          "edges", static_cast<int64_t>(pref_edges.size()));
      !s.ok()) {
    return s;
  }

  Dataset out;
  out.name = name;
  out.social = graph::SocialGraph::FromEdges(num_users, social_edges);
  if (weighted) {
    out.preferences = graph::PreferenceGraph::FromWeightedEdges(
        num_users, num_items, pref_edges);
  } else {
    std::vector<std::pair<graph::NodeId, graph::ItemId>> plain;
    plain.reserve(pref_edges.size());
    for (const auto& e : pref_edges) plain.emplace_back(e.user, e.item);
    out.preferences =
        graph::PreferenceGraph::FromEdges(num_users, num_items, plain);
  }
  return out;
}

}  // namespace privrec::data
