// SimilarityWorkload serialization. Similarity rows depend only on the
// public social graph, so a deployment computes them once and reuses the
// file across every release — Katz and PPR rows in particular are far
// more expensive to compute than to load.
//
// Format: a '#'-header carrying measure name, user count and the global
// sensitivity statistics, then one "u v score" line per entry.

#ifndef PRIVREC_SIMILARITY_WORKLOAD_IO_H_
#define PRIVREC_SIMILARITY_WORKLOAD_IO_H_

#include <string>

#include "common/status.h"
#include "similarity/workload.h"

namespace privrec::similarity {

Status SaveWorkload(const SimilarityWorkload& workload,
                    const std::string& path);

// Loads a workload saved for a graph of `num_users` users; a file saved
// for another size is a ParseError, checked before anything is sized from
// it. Non-finite scores and statistics are malformed, and the header's
// entry count must match the entries read.
Result<SimilarityWorkload> LoadWorkload(const std::string& path,
                                        graph::NodeId num_users);

}  // namespace privrec::similarity

#endif  // PRIVREC_SIMILARITY_WORKLOAD_IO_H_
