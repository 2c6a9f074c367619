#include "artifact/shard_layout.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "artifact/format.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/fsync.h"
#include "common/macros.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::serving {

// The raw-array sections are memcpy'd to and from disk; the format is
// defined as little-endian IEEE-754, which is what every supported target
// is. A big-endian port would need byte-swapping read/write shims here.
static_assert(std::endian::native == std::endian::little,
              "the artifact layout requires a little-endian target");
static_assert(sizeof(WorkloadEntry) == 16 &&
                  offsetof(WorkloadEntry, user) == 0 &&
                  offsetof(WorkloadEntry, score) == 8,
              "WorkloadEntry must match its 16-byte on-disk record layout");
static_assert(sizeof(double) == 8, "f64 storage assumed");
static_assert(sizeof(float) == 4, "f32 storage assumed");

namespace {

constexpr uint64_t kFrameHeaderBytes = 16;
constexpr uint64_t kTableEntryBytes = 32;
// A manifest has at most 9 sections and a shard 5; anything claiming more
// is damage, not data.
constexpr uint32_t kMaxSections = 64;

uint64_t AlignUp(uint64_t v) {
  return (v + kShardAlignment - 1) / kShardAlignment * kShardAlignment;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// Atomic, durable publication of one file: temp file in the destination
// directory, write, fsync, rename. A failure before the rename removes
// the temp file and leaves `path` as it was. The rename is durable once
// the caller fsyncs the directory.
Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  if (fault::Hit("artifact.open") == fault::FaultKind::kIoError) {
    return Status::IoError("injected open failure for '" + path + "'");
  }
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing");
  }
  auto fail = [&](std::string message) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::IoError(std::move(message));
  };
  if (fault::Hit("artifact.write") == fault::FaultKind::kIoError) {
    return fail("injected write failure for '" + path + "'");
  }
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return fail("write to '" + tmp + "' failed");
    done += static_cast<size_t>(n);
  }
  if (fault::Hit("artifact.sync") == fault::FaultKind::kIoError) {
    return fail("injected fsync failure for '" + path + "'");
  }
  if (::fsync(fd) != 0) return fail("fsync of '" + tmp + "' failed");
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("close of '" + tmp + "' failed");
  }
  if (fault::Hit("artifact.rename") == fault::FaultKind::kIoError) {
    std::remove(tmp.c_str());
    return Status::IoError("injected rename failure for '" + path + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

std::string RawBytes(const void* data, size_t size) {
  return std::string(static_cast<const char*>(data), size);
}

// Splits a manifest path into its directory (with trailing '/', or empty)
// and its file name.
std::pair<std::string, std::string> SplitManifestPath(
    const std::string& manifest_path) {
  const size_t slash = manifest_path.rfind('/');
  if (slash == std::string::npos) return {std::string(), manifest_path};
  return {manifest_path.substr(0, slash + 1),
          manifest_path.substr(slash + 1)};
}

// Whether `name` is a shard file, or a shard temp file, that a save of the
// manifest named `base` may have written: `<base>.shard<k>`, optionally
// followed by `.<8 hex digits>`, optionally followed by `.tmp`.
bool IsShardFileOf(const std::string& base, std::string_view name) {
  const std::string prefix = base + ".shard";
  if (!name.starts_with(prefix)) return false;
  name.remove_prefix(prefix.size());
  const size_t digits =
      std::min(name.find_first_not_of("0123456789"), name.size());
  if (digits == 0) return false;
  name.remove_prefix(digits);
  if (name.size() >= 9 && name[0] == '.' &&
      name.substr(1, 8).find_first_not_of("0123456789abcdef") ==
          std::string_view::npos) {
    name.remove_prefix(9);
  }
  return name.empty() || name == ".tmp";
}

// Removes the manifest's temp file and each shard file of the same base
// whose name satisfies `doomed`.
template <typename Predicate>
void RemoveShardFiles(const std::string& manifest_path, Predicate doomed) {
  const auto [dir, base] = SplitManifestPath(manifest_path);
  std::error_code ec;
  std::filesystem::remove(manifest_path + ".tmp", ec);
  std::vector<std::filesystem::path> paths;
  // The error_code overloads throughout: cleanup runs after the commit,
  // so a failure here must not turn a committed save into an exception.
  for (std::filesystem::directory_iterator it(dir.empty() ? "." : dir, ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (IsShardFileOf(base, name) && doomed(name)) {
      paths.push_back(it->path());
    }
  }
  for (const auto& path : paths) std::filesystem::remove(path, ec);
}

}  // namespace

const char* ManifestSectionName(ManifestSectionId id) {
  switch (id) {
    case ManifestSectionId::kManifestMeta: return "manifest_meta";
    case ManifestSectionId::kShardTable: return "shard_table";
    case ManifestSectionId::kClusterOf: return "cluster_of";
    case ManifestSectionId::kClusterSizes: return "cluster_sizes";
    case ManifestSectionId::kSanitizedFlags: return "sanitized_flags";
    case ManifestSectionId::kWorkloadOffsets: return "workload_offsets";
    case ManifestSectionId::kPrefOffsets: return "pref_offsets";
    case ManifestSectionId::kLowRankB: return "low_rank_b";
    case ManifestSectionId::kLowRankL: return "low_rank_l";
  }
  return "unknown";
}

const char* ShardSectionName(ShardSectionId id) {
  switch (id) {
    case ShardSectionId::kShardHeader: return "shard_header";
    case ShardSectionId::kNoisyRows: return "noisy_rows";
    case ShardSectionId::kWorkloadEntries: return "workload_entries";
    case ShardSectionId::kPrefItems: return "pref_items";
    case ShardSectionId::kPrefWeights: return "pref_weights";
    case ShardSectionId::kNoisyRowsF32: return "noisy_rows_f32";
  }
  return "unknown";
}

std::string EncodeAlignedContainer(
    uint32_t magic, uint32_t version,
    const std::vector<AlignedSection>& sections) {
  PRIVREC_CHECK(sections.size() <= kMaxSections);
  const uint64_t frame_bytes =
      kFrameHeaderBytes + kTableEntryBytes * sections.size();

  // Lay payloads out at aligned offsets after the frame.
  std::vector<uint64_t> offsets(sections.size());
  uint64_t cursor = AlignUp(frame_bytes);
  for (size_t k = 0; k < sections.size(); ++k) {
    offsets[k] = cursor;
    cursor = AlignUp(cursor + sections[k].payload.size());
  }
  const uint64_t total =
      sections.empty()
          ? frame_bytes
          : offsets.back() + sections.back().payload.size();

  std::string out;
  out.reserve(total);
  PutU32(&out, magic);
  PutU32(&out, version);
  PutU32(&out, static_cast<uint32_t>(sections.size()));
  PutU32(&out, 0);
  for (size_t k = 0; k < sections.size(); ++k) {
    PutU32(&out, sections[k].id);
    PutU32(&out, 0);
    PutU64(&out, offsets[k]);
    PutU64(&out, sections[k].payload.size());
    PutU32(&out, Crc32(sections[k].payload.data(),
                       sections[k].payload.size()));
    PutU32(&out, 0);
  }
  for (size_t k = 0; k < sections.size(); ++k) {
    out.resize(offsets[k], '\0');  // zero padding up to the aligned offset
    out.append(sections[k].payload);
  }
  return out;
}

Result<AlignedContainerView> ParseAlignedContainer(
    const char* data, uint64_t size, uint32_t expected_magic,
    uint32_t expected_version, const std::string& what) {
  auto damaged = [&](const std::string& detail) {
    return Status::ParseError(what + " truncated or corrupt: " + detail);
  };
  if (size < kFrameHeaderBytes) return damaged("shorter than the header");

  auto u32_at = [&](uint64_t off) {
    uint32_t v = 0;
    std::memcpy(&v, data + off, 4);
    return v;
  };
  auto u64_at = [&](uint64_t off) {
    uint64_t v = 0;
    std::memcpy(&v, data + off, 8);
    return v;
  };

  AlignedContainerView view;
  view.magic = u32_at(0);
  view.version = u32_at(4);
  if (view.magic != expected_magic) {
    return damaged("bad magic (not the expected container type)");
  }
  if (view.version != expected_version) {
    return Status::VersionMismatch(
        what + " has format version " + std::to_string(view.version) +
        ", this reader expects " + std::to_string(expected_version));
  }
  const uint32_t count = u32_at(8);
  if (count > kMaxSections) return damaged("absurd section count");
  view.frame_bytes = kFrameHeaderBytes + kTableEntryBytes * count;
  if (size < view.frame_bytes) return damaged("section table truncated");

  view.sections.reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    const uint64_t base = kFrameHeaderBytes + kTableEntryBytes * k;
    AlignedSectionView s;
    s.id = u32_at(base);
    s.offset = u64_at(base + 8);
    s.size = u64_at(base + 16);
    s.crc32 = u32_at(base + 24);
    if (s.offset < view.frame_bytes || s.offset > size ||
        s.size > size - s.offset) {
      return damaged("section table entry out of the file's byte range");
    }
    if (s.offset % kShardAlignment != 0) {
      return damaged("section payload is misaligned");
    }
    view.sections.push_back(s);
  }
  return view;
}

std::string EncodeManifestMeta(const ManifestMeta& m) {
  ByteWriter w;
  w.U64(m.meta.graph_hash);
  w.I64(m.meta.num_users);
  w.I64(m.meta.num_items);
  w.I64(m.meta.num_social_edges);
  w.I64(m.meta.num_preference_edges);
  w.F64(m.meta.max_weight);
  w.Str(m.meta.measure_name);
  w.F64(m.provenance.epsilon);
  w.F64(m.provenance.sensitivity);
  w.U64(m.provenance.seed);
  w.Str(m.provenance.ledger_id);
  w.F64(m.max_column_sum);
  w.F64(m.max_entry);
  w.I64(m.num_clusters);
  w.I64(m.empty_clusters);
  w.I64(m.singleton_clusters);
  w.I64(m.nonfinite_sanitized);
  w.U8(m.has_preferences ? 1 : 0);
  w.U8(m.has_lowrank ? 1 : 0);
  w.I64(m.lowrank_rank);
  w.F64(m.lowrank_noise_sensitivity);
  w.F64(m.lowrank_factorization_error);
  w.U32(m.shard_count);
  w.U64(m.artifact_token);
  w.U8(m.has_noisy_f32 ? 1 : 0);
  w.U32(m.noisy_f32_source_crc32);
  return w.Take();
}

Status DecodeManifestMeta(const std::string& payload, ManifestMeta* m) {
  ByteReader r(payload, ManifestSectionName(ManifestSectionId::kManifestMeta));
  uint8_t has_prefs = 0, has_lowrank = 0, has_f32 = 0;
  if (!r.U64(&m->meta.graph_hash) || !r.I64(&m->meta.num_users) ||
      !r.I64(&m->meta.num_items) || !r.I64(&m->meta.num_social_edges) ||
      !r.I64(&m->meta.num_preference_edges) || !r.F64(&m->meta.max_weight) ||
      !r.Str(&m->meta.measure_name) || !r.F64(&m->provenance.epsilon) ||
      !r.F64(&m->provenance.sensitivity) || !r.U64(&m->provenance.seed) ||
      !r.Str(&m->provenance.ledger_id) || !r.F64(&m->max_column_sum) ||
      !r.F64(&m->max_entry) || !r.I64(&m->num_clusters) ||
      !r.I64(&m->empty_clusters) || !r.I64(&m->singleton_clusters) ||
      !r.I64(&m->nonfinite_sanitized) || !r.U8(&has_prefs) ||
      !r.U8(&has_lowrank) || !r.I64(&m->lowrank_rank) ||
      !r.F64(&m->lowrank_noise_sensitivity) ||
      !r.F64(&m->lowrank_factorization_error) || !r.U32(&m->shard_count) ||
      !r.U64(&m->artifact_token) || !r.U8(&has_f32) ||
      !r.U32(&m->noisy_f32_source_crc32) || !r.AtEnd()) {
    return r.Truncated();
  }
  m->has_preferences = has_prefs != 0;
  m->has_lowrank = has_lowrank != 0;
  m->has_noisy_f32 = has_f32 != 0;
  if (m->meta.num_users < 0 || m->meta.num_items < 0) return r.Truncated();
  return Status::Ok();
}

std::string EncodeShardTable(const std::vector<ShardTableEntry>& t) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(t.size()));
  for (const ShardTableEntry& e : t) {
    w.Str(e.file);
    w.I64(e.cluster_begin);
    w.I64(e.cluster_end);
    w.U64(e.file_size);
    w.U32(e.frame_crc32);
    w.U64(e.noisy_values);
    w.U64(e.workload_entries);
    w.U64(e.pref_edges);
  }
  return w.Take();
}

Status DecodeShardTable(const std::string& payload,
                        std::vector<ShardTableEntry>* t) {
  ByteReader r(payload, ManifestSectionName(ManifestSectionId::kShardTable));
  uint32_t count = 0;
  if (!r.U32(&count) || !r.FitsCount(count, 8)) return r.Truncated();
  t->resize(count);
  for (ShardTableEntry& e : *t) {
    if (!r.Str(&e.file) || !r.I64(&e.cluster_begin) ||
        !r.I64(&e.cluster_end) || !r.U64(&e.file_size) ||
        !r.U32(&e.frame_crc32) || !r.U64(&e.noisy_values) ||
        !r.U64(&e.workload_entries) || !r.U64(&e.pref_edges)) {
      return r.Truncated();
    }
  }
  if (!r.AtEnd()) return r.Truncated();
  return Status::Ok();
}

std::string EncodeShardHeader(const ShardHeader& h) {
  ByteWriter w;
  w.U64(h.graph_hash);
  w.U64(h.artifact_token);
  w.U32(h.shard_index);
  w.U32(h.shard_count);
  w.I64(h.cluster_begin);
  w.I64(h.cluster_end);
  w.I64(h.num_items);
  w.U64(h.workload_entries);
  w.U64(h.pref_edges);
  return w.Take();
}

Status DecodeShardHeader(const std::string& payload, ShardHeader* h) {
  ByteReader r(payload, ShardSectionName(ShardSectionId::kShardHeader));
  if (!r.U64(&h->graph_hash) || !r.U64(&h->artifact_token) ||
      !r.U32(&h->shard_index) || !r.U32(&h->shard_count) ||
      !r.I64(&h->cluster_begin) || !r.I64(&h->cluster_end) ||
      !r.I64(&h->num_items) || !r.U64(&h->workload_entries) ||
      !r.U64(&h->pref_edges) || !r.AtEnd()) {
    return r.Truncated();
  }
  return Status::Ok();
}

uint64_t ArtifactToken(const ArtifactModel& model) {
  // splitmix64-style mixing of the identity-bearing scalars. Deterministic
  // across runs and platforms; never persisted anywhere but here.
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    uint64_t z = h;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  uint64_t h = 0x50565241ull;  // "PVRA"
  h = mix(h, model.meta.graph_hash);
  h = mix(h, model.provenance.seed);
  h = mix(h, std::bit_cast<uint64_t>(model.provenance.epsilon));
  h = mix(h, static_cast<uint64_t>(model.noisy.num_clusters));
  h = mix(h, static_cast<uint64_t>(model.meta.num_items));
  return h;
}

std::vector<int64_t> ShardClusterBounds(const ArtifactModel& model,
                                        int64_t shards) {
  const int64_t num_clusters = model.noisy.num_clusters;
  const int64_t k_max = std::max<int64_t>(num_clusters, 1);
  const int64_t k = std::clamp<int64_t>(shards, 1, k_max);

  // Estimated bytes a cluster contributes to its shard: its noisy row
  // plus the workload records of its users (the dominant payloads).
  std::vector<uint64_t> weight(static_cast<size_t>(num_clusters), 0);
  for (size_t u = 0; u < model.partition.cluster_of.size(); ++u) {
    const int64_t c = model.partition.cluster_of[u];
    weight[static_cast<size_t>(c)] +=
        (model.workload.offsets[u + 1] - model.workload.offsets[u]) *
        sizeof(WorkloadEntry);
  }
  uint64_t total = 0;
  for (int64_t c = 0; c < num_clusters; ++c) {
    weight[static_cast<size_t>(c)] +=
        static_cast<uint64_t>(model.meta.num_items) * sizeof(double);
    total += weight[static_cast<size_t>(c)];
  }

  // Greedy balanced cuts: close shard s once its cumulative weight crosses
  // the s-th ideal boundary, but always leave one cluster per open shard.
  std::vector<int64_t> bounds;
  bounds.reserve(static_cast<size_t>(k) + 1);
  bounds.push_back(0);
  uint64_t cum = 0;
  int64_t c = 0;
  for (int64_t s = 0; s + 1 < k; ++s) {
    const uint64_t target = total * static_cast<uint64_t>(s + 1) /
                            static_cast<uint64_t>(k);
    const int64_t last_start = num_clusters - (k - s - 1);
    do {
      cum += weight[static_cast<size_t>(c)];
      ++c;
    } while (c < last_start && cum < target);
    bounds.push_back(c);
  }
  bounds.push_back(num_clusters);
  return bounds;
}

Status SaveShardedArtifact(const ArtifactModel& model,
                           const std::string& manifest_path,
                           const ShardingOptions& options) {
  PRIVREC_SPAN("artifact.save");
  static obs::Histogram& save_ms = obs::GetHistogram(
      "privrec.artifact.save_ms", obs::ExponentialBuckets(0.1, 4.0, 10));
  ScopedTimer timer(&save_ms);

  const std::vector<int64_t> bounds = ShardClusterBounds(model, options.shards);
  const auto shard_count = static_cast<uint32_t>(bounds.size() - 1);
  const uint64_t token = ArtifactToken(model);
  const size_t num_users = model.partition.cluster_of.size();
  const auto num_items = static_cast<uint64_t>(model.meta.num_items);

  // Shard owning each cluster.
  std::vector<uint32_t> shard_of_cluster(
      static_cast<size_t>(model.noisy.num_clusters), 0);
  for (uint32_t s = 0; s < shard_count; ++s) {
    for (int64_t c = bounds[s]; c < bounds[s + 1]; ++c) {
      shard_of_cluster[static_cast<size_t>(c)] = s;
    }
  }

  const auto [dir, base_name] = SplitManifestPath(manifest_path);

  std::vector<ShardTableEntry> table(shard_count);
  uint64_t total_bytes = 0;
  for (uint32_t s = 0; s < shard_count; ++s) {
    const int64_t cb = bounds[s], ce = bounds[s + 1];

    // Concatenate the shard's users' workload / preference rows in
    // ascending user order — the order the loader rebuilds its per-user
    // row pointers in, so round-tripping is exact.
    std::string workload_blob, pref_items_blob, pref_weights_blob;
    uint64_t entry_count = 0, pref_count = 0;
    for (size_t u = 0; u < num_users; ++u) {
      const uint32_t us =
          shard_of_cluster[static_cast<size_t>(model.partition.cluster_of[u])];
      if (us != s) continue;
      const uint64_t begin = model.workload.offsets[u];
      const uint64_t end = model.workload.offsets[u + 1];
      workload_blob.append(RawBytes(model.workload.entries.data() + begin,
                                    (end - begin) * sizeof(WorkloadEntry)));
      entry_count += end - begin;
      if (model.has_preferences) {
        const uint64_t pb = model.preferences.offsets[u];
        const uint64_t pe = model.preferences.offsets[u + 1];
        pref_items_blob.append(RawBytes(model.preferences.items.data() + pb,
                                        (pe - pb) * sizeof(int64_t)));
        pref_weights_blob.append(
            RawBytes(model.preferences.weights.data() + pb,
                     (pe - pb) * sizeof(double)));
        pref_count += pe - pb;
      }
    }

    ShardHeader header;
    header.graph_hash = model.meta.graph_hash;
    header.artifact_token = token;
    header.shard_index = s;
    header.shard_count = shard_count;
    header.cluster_begin = cb;
    header.cluster_end = ce;
    header.num_items = model.meta.num_items;
    header.workload_entries = entry_count;
    header.pref_edges = pref_count;

    std::vector<AlignedSection> sections;
    sections.push_back({static_cast<uint32_t>(ShardSectionId::kShardHeader),
                        EncodeShardHeader(header)});
    sections.push_back(
        {static_cast<uint32_t>(ShardSectionId::kNoisyRows),
         RawBytes(model.noisy.values.data() +
                      static_cast<uint64_t>(cb) * num_items,
                  static_cast<uint64_t>(ce - cb) * num_items *
                      sizeof(double))});
    if (model.has_noisy_f32) {
      sections.push_back(
          {static_cast<uint32_t>(ShardSectionId::kNoisyRowsF32),
           RawBytes(model.noisy_f32.values.data() +
                        static_cast<uint64_t>(cb) * num_items,
                    static_cast<uint64_t>(ce - cb) * num_items *
                        sizeof(float))});
    }
    sections.push_back(
        {static_cast<uint32_t>(ShardSectionId::kWorkloadEntries),
         std::move(workload_blob)});
    if (model.has_preferences) {
      sections.push_back({static_cast<uint32_t>(ShardSectionId::kPrefItems),
                          std::move(pref_items_blob)});
      sections.push_back(
          {static_cast<uint32_t>(ShardSectionId::kPrefWeights),
           std::move(pref_weights_blob)});
    }

    const std::string bytes =
        EncodeAlignedContainer(kShardMagic, kShardFormatVersion, sections);
    const uint64_t frame =
        kFrameHeaderBytes + kTableEntryBytes * sections.size();
    ShardTableEntry& e = table[s];
    e.frame_crc32 = Crc32(bytes.data(), frame);
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".%08x", e.frame_crc32);
    e.file = base_name + ".shard" + std::to_string(s) + suffix;
    Status written = WriteFileAtomic(dir + e.file, bytes);
    if (!written.ok()) return written;
    total_bytes += bytes.size();

    e.cluster_begin = cb;
    e.cluster_end = ce;
    e.file_size = bytes.size();
    e.noisy_values = static_cast<uint64_t>(ce - cb) * num_items;
    e.workload_entries = entry_count;
    e.pref_edges = pref_count;
  }

  ManifestMeta meta;
  meta.meta = model.meta;
  meta.provenance = model.provenance;
  meta.max_column_sum = model.workload.max_column_sum;
  meta.max_entry = model.workload.max_entry;
  meta.num_clusters = model.noisy.num_clusters;
  meta.empty_clusters = model.noisy.empty_clusters;
  meta.singleton_clusters = model.noisy.singleton_clusters;
  meta.nonfinite_sanitized = model.noisy.nonfinite_sanitized;
  meta.has_preferences = model.has_preferences;
  meta.has_lowrank = model.has_lowrank;
  meta.lowrank_rank = model.lowrank.rank;
  meta.lowrank_noise_sensitivity = model.lowrank.noise_sensitivity;
  meta.lowrank_factorization_error = model.lowrank.factorization_error;
  meta.shard_count = shard_count;
  meta.artifact_token = token;
  meta.has_noisy_f32 = model.has_noisy_f32;
  meta.noisy_f32_source_crc32 = model.noisy_f32.source_crc32;

  std::vector<AlignedSection> sections;
  sections.push_back({static_cast<uint32_t>(ManifestSectionId::kManifestMeta),
                      EncodeManifestMeta(meta)});
  sections.push_back({static_cast<uint32_t>(ManifestSectionId::kShardTable),
                      EncodeShardTable(table)});
  sections.push_back(
      {static_cast<uint32_t>(ManifestSectionId::kClusterOf),
       RawBytes(model.partition.cluster_of.data(),
                model.partition.cluster_of.size() * sizeof(int64_t))});
  sections.push_back(
      {static_cast<uint32_t>(ManifestSectionId::kClusterSizes),
       RawBytes(model.partition.sizes.data(),
                model.partition.sizes.size() * sizeof(int64_t))});
  sections.push_back(
      {static_cast<uint32_t>(ManifestSectionId::kSanitizedFlags),
       RawBytes(model.noisy.sanitized.data(), model.noisy.sanitized.size())});
  sections.push_back(
      {static_cast<uint32_t>(ManifestSectionId::kWorkloadOffsets),
       RawBytes(model.workload.offsets.data(),
                model.workload.offsets.size() * sizeof(uint64_t))});
  if (model.has_preferences) {
    sections.push_back(
        {static_cast<uint32_t>(ManifestSectionId::kPrefOffsets),
         RawBytes(model.preferences.offsets.data(),
                  model.preferences.offsets.size() * sizeof(uint64_t))});
  }
  if (model.has_lowrank) {
    sections.push_back(
        {static_cast<uint32_t>(ManifestSectionId::kLowRankB),
         RawBytes(model.lowrank.b.data(),
                  model.lowrank.b.size() * sizeof(double))});
    sections.push_back(
        {static_cast<uint32_t>(ManifestSectionId::kLowRankL),
         RawBytes(model.lowrank.l.data(),
                  model.lowrank.l.size() * sizeof(double))});
  }

  const std::string bytes =
      EncodeAlignedContainer(kManifestMagic, kShardFormatVersion, sections);
  // The shards' renames reach the disk before the manifest that names
  // them; the manifest's rename is the commit point.
  if (Status synced = SyncDirectoryOf(manifest_path); !synced.ok()) {
    return synced;
  }
  Status committed = WriteFileAtomic(manifest_path, bytes);
  if (!committed.ok()) return committed;
  if (Status synced = SyncDirectoryOf(manifest_path); !synced.ok()) {
    return synced;
  }
  RemoveShardFiles(manifest_path, [&](const std::string& name) {
    return std::none_of(
        table.begin(), table.end(),
        [&](const ShardTableEntry& e) { return e.file == name; });
  });

  static obs::Gauge& bytes_gauge = obs::GetGauge("privrec.artifact.bytes");
  bytes_gauge.Set(static_cast<double>(total_bytes + bytes.size()));
  return Status::Ok();
}

void RemoveSaveDebris(const std::string& manifest_path) {
  RemoveShardFiles(manifest_path, [](const std::string& name) {
    return name.ends_with(".tmp");
  });
}

}  // namespace privrec::serving
