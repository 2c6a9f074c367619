// Plain-text graph I/O.
//
// Format: one edge per line, whitespace-separated integer endpoints;
// '#'-prefixed lines and blank lines are ignored. Node/item ids need not be
// contiguous — they are remapped densely on load and the mapping returned.
//
// Loads are strict (common/record_reader.h): the first malformed record is
// a ParseError naming the file and line.
//
// Fault points (see common/fault_injection.h):
//   graph_io.open   kIoError  — the open fails
//   graph_io.read   kShortRead — the stream ends after the current line
//                   (ParseError); kIoError — the read fails
//   graph_io.alloc  kBadAlloc — edge-buffer allocation fails
//                               (ResourceExhausted)

#ifndef PRIVREC_GRAPH_GRAPH_IO_H_
#define PRIVREC_GRAPH_GRAPH_IO_H_

#include <string>
#include <vector>

#include "common/load_report.h"
#include "common/status.h"
#include "graph/preference_graph.h"
#include "graph/social_graph.h"

namespace privrec::graph {

struct LoadedSocialGraph {
  SocialGraph graph;
  // original id of node k.
  std::vector<int64_t> original_id;
  LoadReport report;
};

struct LoadedPreferenceGraph {
  PreferenceGraph graph;
  std::vector<int64_t> original_user_id;
  std::vector<int64_t> original_item_id;
  LoadReport report;
};

// Reads an undirected social edge list. Node ids must be non-negative and
// self loops are defects; a repeated edge loads once.
Result<LoadedSocialGraph> LoadSocialGraph(const std::string& path);

// Reads a bipartite user-item edge list. User ids and item ids live in
// separate namespaces (a raw id may appear as both a user and an item).
// Lines may carry an optional third column with a positive, finite edge
// weight; if any line does, the loaded graph is weighted (absent weights
// read as 1).
Result<LoadedPreferenceGraph> LoadPreferenceGraph(const std::string& path);

// Writers (one edge per line); used by tests and for exporting synthetic
// datasets.
Status SaveSocialGraph(const SocialGraph& g, const std::string& path);
Status SavePreferenceGraph(const PreferenceGraph& g, const std::string& path);

}  // namespace privrec::graph

#endif  // PRIVREC_GRAPH_GRAPH_IO_H_
