#include "community/partition_io.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "common/record_reader.h"
#include "common/string_util.h"

namespace privrec::community {

Status SavePartition(const Partition& partition, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# privrec partition: " << partition.num_nodes() << " nodes, "
      << partition.num_clusters() << " clusters\n";
  for (graph::NodeId u = 0; u < partition.num_nodes(); ++u) {
    out << u << '\t' << partition.ClusterOf(u) << '\n';
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

Result<Partition> LoadPartition(const std::string& path,
                                graph::NodeId num_nodes) {
  auto reader = RecordReader::Open(path, "partition_io");
  if (!reader.ok()) return reader.status();
  if (StartsWith(reader->header(), "# privrec partition:")) {
    // "# privrec partition: <N> nodes, <K> clusters".
    int64_t header_nodes = 0;
    if (!reader->HeaderCount("nodes", &header_nodes)) {
      return Status::ParseError(path + ":1: bad partition header");
    }
    if (header_nodes != num_nodes) {
      return Status::ParseError(path + ": partition has " +
                                std::to_string(header_nodes) +
                                " nodes, expected " +
                                std::to_string(num_nodes));
    }
  }
  std::vector<int64_t> labels(static_cast<size_t>(num_nodes), -1);
  int64_t assigned = 0;
  while (reader->Next(2)) {
    int64_t node = 0;
    int64_t cluster = 0;
    if (!ParseId(reader->field(0), &node) ||
        !ParseId(reader->field(1), &cluster)) {
      return reader->Error("expected non-negative integer node and cluster");
    }
    if (node >= num_nodes) {
      return reader->Error("node " + std::to_string(node) + " outside 0.." +
                           std::to_string(num_nodes - 1));
    }
    if (labels[static_cast<size_t>(node)] >= 0) {
      return reader->Error("duplicate node " + std::to_string(node));
    }
    labels[static_cast<size_t>(node)] = cluster;
    ++assigned;
  }
  if (!reader->status().ok()) return reader->status();
  // Every node appears exactly once, so a file cut at a line boundary (or
  // missing any line) comes up short.
  if (assigned != num_nodes) {
    const auto missing = std::find(labels.begin(), labels.end(), -1);
    return Status::ParseError(
        path + ": truncated partition (" + std::to_string(assigned) +
        " of " + std::to_string(num_nodes) + " nodes assigned, node " +
        std::to_string(missing - labels.begin()) + " missing)");
  }
  return Partition(labels);
}

}  // namespace privrec::community
