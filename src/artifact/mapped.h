// Zero-copy access to a saved artifact (.pvram manifest + shard files, see
// artifact/shard_layout.h).
//
// MappedFile maps a file read-only with mmap(2) and falls back to a plain
// read-into-buffer when mapping is unavailable or disabled
// (PRIVREC_NO_MMAP=1 / MapOptions::use_mmap=false) — the two paths expose
// the same bytes at the same alignment, so everything above them is
// byte-identical either way; sharded_artifact_test pins that.
//
// MappedArtifact opens the manifest, then every shard, and validates the
// whole set BEFORE exposing a single pointer: frame + payload CRCs
// (kDataLoss on mismatch), section byte ranges against the counts their
// headers claim (kParseError — a count may never size a read the section's
// actual bytes can't back), the dataset fingerprint (kGraphMismatch), the
// build token (kProvenanceMismatch), and the shard-set geometry
// (kFailedPrecondition for a missing/foreign/mis-sized shard set member;
// kNotFound when a referenced shard file does not exist). There is no
// partial load: Open either returns a fully-validated artifact or a typed
// error.
//
// Lifetime: the serving engine holds the MappedArtifact by shared_ptr and
// epoch snapshots hold the engine, so an mmap lives exactly as long as
// the last in-flight request pinned to its epoch — hot swap never unmaps
// bytes a reader could still touch.

#ifndef PRIVREC_ARTIFACT_MAPPED_H_
#define PRIVREC_ARTIFACT_MAPPED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artifact/shard_layout.h"
#include "common/status.h"

namespace privrec::serving {

struct MapOptions {
  // mmap(2) the files; false reads them into heap buffers instead (the
  // portable fallback — same bytes, same semantics, RSS equal to file
  // size).
  bool use_mmap = true;
};

// use_mmap = false iff PRIVREC_NO_MMAP is set to a nonempty value other
// than "0".
MapOptions MapOptionsFromEnv();

// A read-only byte view of one file, mmap- or buffer-backed. Move-only.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // kNotFound when the file does not exist; kIoError for open/map/read
  // failures.
  static Result<MappedFile> Open(const std::string& path, bool use_mmap);

  const char* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool mmap_backed() const { return mapped_; }

 private:
  const char* data_ = nullptr;
  uint64_t size_ = 0;
  bool mapped_ = false;
  std::unique_ptr<char[]> owned_;  // fallback storage
};

// A fully validated, immutable view of one sharded artifact.
class MappedArtifact {
 public:
  struct Shard {
    ShardHeader header;
    const double* noisy_rows = nullptr;           // (ce-cb) x num_items
    const float* noisy_rows_f32 = nullptr;        // null without f32 mirror
    const WorkloadEntry* workload_entries = nullptr;
    const int64_t* pref_items = nullptr;          // null without prefs
    const double* pref_weights = nullptr;
  };

  // Opens manifest + shards with the full validation contract above.
  static Result<std::shared_ptr<const MappedArtifact>> Open(
      const std::string& manifest_path, const MapOptions& options);

  const ManifestMeta& meta() const { return meta_; }
  const std::vector<ShardTableEntry>& shard_table() const { return table_; }
  const std::vector<Shard>& shards() const { return shards_; }
  uint32_t shard_count() const { return meta_.shard_count; }

  const int64_t* cluster_of() const { return cluster_of_; }
  const int64_t* cluster_sizes() const { return cluster_sizes_; }
  const uint8_t* sanitized() const { return sanitized_; }
  const uint64_t* workload_offsets() const { return workload_offsets_; }
  const uint64_t* pref_offsets() const { return pref_offsets_; }
  const double* lowrank_b() const { return lowrank_b_; }
  const double* lowrank_l() const { return lowrank_l_; }

  bool mmap_backed() const { return manifest_.mmap_backed(); }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  ManifestMeta meta_;
  std::vector<ShardTableEntry> table_;
  std::vector<Shard> shards_;
  const int64_t* cluster_of_ = nullptr;
  const int64_t* cluster_sizes_ = nullptr;
  const uint8_t* sanitized_ = nullptr;
  const uint64_t* workload_offsets_ = nullptr;
  const uint64_t* pref_offsets_ = nullptr;
  const double* lowrank_b_ = nullptr;
  const double* lowrank_l_ = nullptr;
  uint64_t total_bytes_ = 0;
  MappedFile manifest_;
  std::vector<MappedFile> shard_files_;
};

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_MAPPED_H_
