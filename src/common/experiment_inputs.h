// LoadExperimentInputs: the one shared dataset prologue for the example
// drivers (load-or-bootstrap the TSV inputs, reuse the on-disk
// workload/partition caches, compute common-neighbours similarity rows
// and Louvain clusters).
//
// Declared under common/ next to driver_flags and, like it, compiled into
// the top-layer `privrec_driver` target: it depends on the data/
// similarity/community/core layers, which privrec_common must not.

#ifndef PRIVREC_COMMON_EXPERIMENT_INPUTS_H_
#define PRIVREC_COMMON_EXPERIMENT_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "community/louvain.h"
#include "core/recommender.h"
#include "data/dataset.h"
#include "similarity/workload.h"

namespace privrec {

struct ExperimentInputsOptions {
  // File-backed mode: load these TSV paths; when either file is missing, a
  // demo dataset is written there first so drivers run out of the box.
  // Both empty: build the tiny synthetic dataset below instead.
  std::string social_path;
  std::string prefs_path;
  // Optional caches for the public precomputations (clustering and
  // similarity rows read only public data, so deployments compute them
  // once and reuse them across releases).
  std::string workload_path;
  std::string partition_path;
  // Synthetic mode: data::MakeTinyDataset at this shape and seed.
  int64_t tiny_users = 300;
  int64_t tiny_items = 400;
  uint64_t tiny_seed = 42;
  // createClusters configuration; set run_louvain = false for drivers that
  // cluster per-snapshot themselves (e.g. dynamic sessions).
  community::LouvainOptions louvain;
  bool run_louvain = true;
  // Print load/bootstrap progress to stdout (examples do, benches don't).
  bool verbose = false;
};

struct ExperimentInputs {
  data::Dataset dataset;
  // Original ids from the input files (identity for synthetic data).
  std::vector<int64_t> original_user_id;
  std::vector<int64_t> original_item_id;
  similarity::SimilarityWorkload workload;
  // Default-constructed when run_louvain was false.
  community::LouvainResult louvain;

  std::vector<graph::NodeId> AllUsers() const;
  // The recommender inputs. The returned context points into this
  // struct — keep it alive.
  core::RecommenderContext Context() const;
};

Result<ExperimentInputs> LoadExperimentInputs(
    const ExperimentInputsOptions& options);

}  // namespace privrec

#endif  // PRIVREC_COMMON_EXPERIMENT_INPUTS_H_
