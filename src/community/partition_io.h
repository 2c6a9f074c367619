// Partition serialization: save/load cluster assignments as TSV
// ("node<TAB>cluster" per line). Lets a deployment cluster the social
// graph once and reuse the (public, privacy-free) result across many
// recommendation releases — re-running Louvain per release is pure waste
// since the input is the same public graph.

#ifndef PRIVREC_COMMUNITY_PARTITION_IO_H_
#define PRIVREC_COMMUNITY_PARTITION_IO_H_

#include <string>

#include "common/status.h"
#include "community/partition.h"

namespace privrec::community {

Status SavePartition(const Partition& partition, const std::string& path);

// Loads a partition of a graph of `num_nodes` nodes: node ids must be
// exactly 0..num_nodes-1, each appearing once, and a header count must
// agree; anything else is a ParseError, checked before any id sizes
// anything. Cluster labels are compacted on load.
Result<Partition> LoadPartition(const std::string& path,
                                graph::NodeId num_nodes);

}  // namespace privrec::community

#endif  // PRIVREC_COMMUNITY_PARTITION_IO_H_
