// The in-memory form of a model artifact: everything the serve phase is
// allowed to know. Produced by artifact::ModelArtifactBuilder, persisted
// by SaveShardedArtifact (artifact/shard_layout.h), consumed by
// ServingEngine.
//
// Deliberately NOT here: the social graph and the private PreferenceGraph.
// The cluster path (the paper's main mechanism) serves from the sanitized
// sections alone. The preference CSR section is optional and exists only so
// the four reference baselines (Exact/NOU/NOE/GS) can be served through the
// same artifact for apples-to-apples accuracy comparisons; a
// production-shaped artifact simply omits it.

#ifndef PRIVREC_ARTIFACT_MODEL_H_
#define PRIVREC_ARTIFACT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace privrec::serving {

// One similarity-workload record: sim(u, v) = score for neighbor v.
// Mirrors similarity::SimilarityEntry without depending on the similarity
// library (member names must stay `.user` / `.score` — the shared
// reconstruction template reads them generically).
struct WorkloadEntry {
  int64_t user = 0;
  double score = 0.0;

  friend bool operator==(const WorkloadEntry&, const WorkloadEntry&) = default;
};

// graph_meta: dataset identity and the dimensions every serve path needs.
struct GraphMetaSection {
  uint64_t graph_hash = 0;  // graph::DatasetFingerprint of (G_s, G_p)
  int64_t num_users = 0;    // |U| = social nodes = preference users
  int64_t num_items = 0;
  int64_t num_social_edges = 0;
  int64_t num_preference_edges = 0;
  double max_weight = 1.0;  // w_max, the per-edge sensitivity bound
  std::string measure_name;  // similarity measure the workload was built with
};

// partition: createClusters output (public data only).
struct PartitionSection {
  std::vector<int64_t> cluster_of;  // per user node
  std::vector<int64_t> sizes;       // per cluster
};

// workload: the similarity workload CSR (public data only).
struct WorkloadSection {
  std::vector<uint64_t> offsets;  // num_users + 1 entries
  std::vector<WorkloadEntry> entries;
  double max_column_sum = 0.0;
  double max_entry = 0.0;
};

// noisy_table: the A_w release — the only artifact content derived from the
// private preference graph, already ε-DP sanitized.
struct NoisyTableSection {
  int64_t num_clusters = 0;
  std::vector<double> values;     // row-major [cluster][item]
  std::vector<uint8_t> sanitized;  // per cluster
  int64_t empty_clusters = 0;
  int64_t singleton_clusters = 0;
  int64_t nonfinite_sanitized = 0;
};

// provenance: DP provenance — which budget bought this release.
struct ProvenanceSection {
  double epsilon = 0.0;
  double sensitivity = 0.0;  // per-edge bound the noise was calibrated to
  uint64_t seed = 0;         // RNG seed of the publication step
  std::string ledger_id;     // BudgetLedger entry id ("" if unledgered)
};

// preferences (optional): raw preference CSR, user-major. Present only when
// the builder is asked for reference baselines; its presence is what the
// ServingEngine checks before constructing Exact/NOU/NOE/GS servers.
struct PreferenceSection {
  std::vector<uint64_t> offsets;  // num_users + 1 entries
  std::vector<int64_t> items;
  std::vector<double> weights;
};

// noisy_table_f32 (optional): the same A_w release quantized to f32,
// written by the builder's table_f32 option. Pure post-processing of the
// released table (no additional privacy cost); `source_crc32` is the
// CRC-32 of the f64 value bytes it was quantized from, so a serve path can
// prove the two widths describe the same release. The f64 section stays
// required — global-average fallback and provenance always read full
// width.
struct NoisyTableF32Section {
  std::vector<float> values;   // row-major [cluster][item]
  uint32_t source_crc32 = 0;   // Crc32 of the f64 values it mirrors
};

// low_rank (optional): LRM factors W ≈ B L (row-major, dense).
struct LowRankSection {
  int64_t rank = 0;
  std::vector<double> b;  // num_users x rank
  std::vector<double> l;  // rank x num_users
  double noise_sensitivity = 0.0;
  double factorization_error = 0.0;
};

struct ArtifactModel {
  GraphMetaSection meta;
  PartitionSection partition;
  WorkloadSection workload;
  NoisyTableSection noisy;
  ProvenanceSection provenance;
  bool has_preferences = false;
  PreferenceSection preferences;
  bool has_lowrank = false;
  LowRankSection lowrank;
  bool has_noisy_f32 = false;
  NoisyTableF32Section noisy_f32;
};

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_MODEL_H_
