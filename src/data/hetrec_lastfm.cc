#include "data/hetrec_lastfm.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/record_reader.h"
#include "obs/trace.h"

namespace privrec::data {

namespace {

// The paper's threshold: listen counts below 2 are dropped.
constexpr int64_t kMinListens = 2;

// Opens a HetRec .dat file and skips its column-name header, the first
// record.
Result<RecordReader> OpenDat(const std::string& path) {
  auto reader = RecordReader::Open(path, "data.lastfm");
  if (reader.ok() && !reader->Next() && !reader->status().ok()) {
    return reader->status();
  }
  return reader;
}

}  // namespace

Result<Dataset> LoadHetRecLastFm(const std::string& dir) {
  PRIVREC_SPAN("data.load_hetrec_lastfm");
  Dataset out;

  // Users are the union of ids in the friendship file (the paper keeps the
  // full social graph, including its 19 tiny components).
  auto friends = OpenDat(dir + "/user_friends.dat");
  if (!friends.ok()) return friends.status();
  std::unordered_map<int64_t, graph::NodeId> user_index;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> social_edges;
  auto user_id = [&](int64_t raw) {
    auto [it, inserted] =
        user_index.try_emplace(raw, static_cast<graph::NodeId>(
                                        user_index.size()));
    return it->second;
  };
  while (friends->Next(2)) {
    int64_t raw_a = 0;
    int64_t raw_b = 0;
    if (!ParseId(friends->field(0), &raw_a) ||
        !ParseId(friends->field(1), &raw_b)) {
      return friends->Error("expected two non-negative integer user ids");
    }
    ++out.report.lines_scanned;
    if (raw_a == raw_b) {
      ++out.report.skipped_self_loops;
      continue;
    }
    graph::NodeId a = user_id(raw_a);
    graph::NodeId b = user_id(raw_b);
    social_edges.emplace_back(a, b);
  }
  if (!friends->status().ok()) return friends->status();

  auto artists = OpenDat(dir + "/user_artists.dat");
  if (!artists.ok()) return artists.status();
  std::unordered_map<int64_t, graph::ItemId> item_index;
  std::vector<std::pair<graph::NodeId, graph::ItemId>> pref_edges;
  while (artists->Next(3)) {
    int64_t user = 0;
    int64_t artist = 0;
    int64_t listens = 0;
    if (!ParseId(artists->field(0), &user) ||
        !ParseId(artists->field(1), &artist) ||
        !ParseId(artists->field(2), &listens)) {
      return artists->Error("expected three non-negative integer fields");
    }
    ++out.report.lines_scanned;
    if (listens < kMinListens) continue;
    auto uit = user_index.find(user);
    if (uit == user_index.end()) continue;  // user with no social presence
    auto [iit, inserted] = item_index.try_emplace(
        artist, static_cast<graph::ItemId>(item_index.size()));
    pref_edges.emplace_back(uit->second, iit->second);
  }
  if (!artists->status().ok()) return artists->status();

  out.report.records_loaded =
      static_cast<int64_t>(social_edges.size() + pref_edges.size());
  out.name = "lastfm";
  out.social = graph::SocialGraph::FromEdges(
      static_cast<graph::NodeId>(user_index.size()), social_edges);
  out.preferences = graph::PreferenceGraph::FromEdges(
      static_cast<graph::NodeId>(user_index.size()),
      static_cast<graph::ItemId>(item_index.size()), pref_edges);
  RecordLoadMetrics(out.report);
  return out;
}

}  // namespace privrec::data
