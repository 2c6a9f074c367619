#include "artifact/mapped.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::serving {

namespace {

// count * elem without overflow; the gate behind every "does this header
// count actually fit the section's byte range" check.
bool SizeMatches(uint64_t section_size, uint64_t count, uint64_t elem) {
  if (elem != 0 && count > UINT64_MAX / elem) return false;
  return section_size == count * elem;
}

const AlignedSectionView* FindSection(const AlignedContainerView& view,
                                      uint32_t id) {
  for (const AlignedSectionView& s : view.sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

Status VerifySectionCrc(const char* file_data, const AlignedSectionView& s,
                        const std::string& what, const char* name) {
  const uint32_t actual = Crc32(file_data + s.offset, s.size);
  if (actual != s.crc32) {
    return Status::DataLoss(what + " section '" + name +
                           "' failed its CRC check (bit corruption)");
  }
  return Status::Ok();
}

std::string ManifestDir(const std::string& manifest_path) {
  const size_t slash = manifest_path.rfind('/');
  return slash == std::string::npos ? std::string()
                                    : manifest_path.substr(0, slash + 1);
}

}  // namespace

MapOptions MapOptionsFromEnv() {
  MapOptions options;
  const char* no_mmap = std::getenv("PRIVREC_NO_MMAP");
  if (no_mmap != nullptr && no_mmap[0] != '\0' &&
      std::string(no_mmap) != "0") {
    options.use_mmap = false;
  }
  return options;
}

MappedFile::~MappedFile() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      owned_(std::move(other.owned_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (mapped_ && data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
    }
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    owned_ = std::move(other.owned_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path, bool use_mmap) {
  MappedFile file;
  if (use_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) {
        return Status::NotFound("cannot open '" + path + "'");
      }
      return Status::IoError("cannot open '" + path + "': " +
                             std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IoError("cannot stat '" + path + "'");
    }
    file.size_ = static_cast<uint64_t>(st.st_size);
    if (file.size_ > 0) {
      void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr == MAP_FAILED) {
        ::close(fd);
        return Status::IoError("cannot mmap '" + path + "': " +
                               std::strerror(errno));
      }
      file.data_ = static_cast<const char*>(addr);
      file.mapped_ = true;
    }
    ::close(fd);
    return file;
  }

  // Portable fallback: read the whole file into a heap buffer through a
  // plain read(2) loop. operator new returns at-least-16-byte-aligned
  // storage and the format's element types need at most 8, so in-place
  // addressing stays valid. Transient failures — EINTR, a short read from
  // a slow or networked filesystem — are retried a bounded number of
  // times rather than failing the open: artifact swaps happen exactly
  // when the page cache is cold and I/O is at its flakiest. Fault point:
  // artifact.fallback_read (kIoError: transient EINTR-shaped failure,
  // consumed by the retry budget; kShortRead: the next read returns at
  // most one byte, forcing the loop to take another lap).
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("cannot open '" + path + "'");
    }
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat '" + path + "'");
  }
  file.size_ = static_cast<uint64_t>(st.st_size);
  if (file.size_ > 0) {
    file.owned_ = std::make_unique<char[]>(file.size_);
    static obs::Counter& retries =
        obs::GetCounter("privrec.artifact.fallback_read_retries");
    constexpr int kMaxRetries = 64;
    int budget = kMaxRetries;
    uint64_t done = 0;
    while (done < file.size_) {
      size_t want = static_cast<size_t>(file.size_ - done);
      switch (fault::Hit("artifact.fallback_read")) {
        case fault::FaultKind::kIoError:
          if (--budget < 0) {
            ::close(fd);
            return Status::IoError("read of '" + path + "' failed after " +
                                   std::to_string(kMaxRetries) +
                                   " retries (injected fault)");
          }
          retries.Increment();
          continue;
        case fault::FaultKind::kShortRead:
          want = 1;
          break;
        default:
          break;
      }
      const ssize_t n = ::read(fd, file.owned_.get() + done, want);
      if (n < 0) {
        if (errno == EINTR && --budget >= 0) {
          retries.Increment();
          continue;
        }
        ::close(fd);
        return Status::IoError("read of '" + path + "' failed: " +
                               std::strerror(errno));
      }
      if (n == 0) {
        // EOF short of the stat size: the file shrank underneath us or
        // the filesystem returned a spurious zero; bounded retries
        // distinguish a hiccup from real truncation.
        if (--budget >= 0) {
          retries.Increment();
          continue;
        }
        ::close(fd);
        return Status::IoError("unexpected EOF reading '" + path + "' at " +
                               std::to_string(done) + " of " +
                               std::to_string(file.size_) + " bytes");
      }
      done += static_cast<uint64_t>(n);
    }
    file.data_ = file.owned_.get();
  }
  ::close(fd);
  return file;
}

Result<std::shared_ptr<const MappedArtifact>> MappedArtifact::Open(
    const std::string& manifest_path, const MapOptions& options) {
  PRIVREC_SPAN("artifact.map");
  static obs::Histogram& open_ms = obs::GetHistogram(
      "privrec.artifact.mapped_open_ms", obs::ExponentialBuckets(0.1, 4.0, 10));
  ScopedTimer timer(&open_ms);

  if (fault::Hit("artifact.open") == fault::FaultKind::kIoError) {
    return Status::IoError("injected open failure for '" + manifest_path +
                           "'");
  }

  auto artifact = std::make_shared<MappedArtifact>();
  Result<MappedFile> manifest =
      MappedFile::Open(manifest_path, options.use_mmap);
  if (!manifest.ok()) return manifest.status();
  artifact->manifest_ = std::move(*manifest);

  uint64_t manifest_bytes = artifact->manifest_.size();
  const fault::FaultKind read_fault = fault::Hit("artifact.read");
  if (read_fault == fault::FaultKind::kIoError) {
    return Status::IoError("injected read failure for '" + manifest_path +
                           "'");
  }
  if (read_fault == fault::FaultKind::kLatency) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (read_fault == fault::FaultKind::kShortRead) {
    manifest_bytes /= 2;  // simulated truncation of the manifest
  }

  const std::string what = "artifact manifest";
  Result<AlignedContainerView> parsed = ParseAlignedContainer(
      artifact->manifest_.data(), manifest_bytes, kManifestMagic,
      kShardFormatVersion, what);
  if (!parsed.ok()) return parsed.status();

  auto find = [&](ManifestSectionId id) {
    return FindSection(*parsed, static_cast<uint32_t>(id));
  };
  for (ManifestSectionId required :
       {ManifestSectionId::kManifestMeta, ManifestSectionId::kShardTable,
        ManifestSectionId::kClusterOf, ManifestSectionId::kClusterSizes,
        ManifestSectionId::kSanitizedFlags,
        ManifestSectionId::kWorkloadOffsets}) {
    if (find(required) == nullptr) {
      return Status::ParseError(what + " is missing required section '" +
                                ManifestSectionName(required) + "'");
    }
  }
  for (const AlignedSectionView& s : parsed->sections) {
    Status crc = VerifySectionCrc(
        artifact->manifest_.data(), s, what,
        ManifestSectionName(static_cast<ManifestSectionId>(s.id)));
    if (!crc.ok()) return crc;
  }

  // Decode the two blob sections.
  const AlignedSectionView* meta_section =
      find(ManifestSectionId::kManifestMeta);
  Status decoded = DecodeManifestMeta(
      std::string(artifact->manifest_.data() + meta_section->offset,
                  meta_section->size),
      &artifact->meta_);
  if (!decoded.ok()) return decoded;
  const AlignedSectionView* table_section =
      find(ManifestSectionId::kShardTable);
  decoded = DecodeShardTable(
      std::string(artifact->manifest_.data() + table_section->offset,
                  table_section->size),
      &artifact->table_);
  if (!decoded.ok()) return decoded;

  const ManifestMeta& meta = artifact->meta_;
  const auto num_users = static_cast<uint64_t>(meta.meta.num_users);
  const auto num_items = static_cast<uint64_t>(meta.meta.num_items);
  if (meta.num_clusters < 0) {
    return Status::ParseError(what + ": negative cluster count");
  }
  const auto num_clusters = static_cast<uint64_t>(meta.num_clusters);

  // Structural validation: every raw section's byte range must exactly
  // back the element count the metadata claims for it — resizes and
  // pointer spans are derived from these counts, so the mismatch fails
  // here, closed, instead of at serve time.
  struct RawSpec {
    ManifestSectionId id;
    uint64_t count;
    uint64_t elem;
    bool required;
  };
  if (meta.lowrank_rank < 0 ||
      (meta.lowrank_rank > 0 &&
       num_users > UINT64_MAX / static_cast<uint64_t>(meta.lowrank_rank))) {
    return Status::ParseError(what + ": low-rank factor dimensions overflow");
  }
  const uint64_t lr_count =
      num_users * static_cast<uint64_t>(meta.lowrank_rank);
  const RawSpec specs[] = {
      {ManifestSectionId::kClusterOf, num_users, 8, true},
      {ManifestSectionId::kClusterSizes, num_clusters, 8, true},
      {ManifestSectionId::kSanitizedFlags, num_clusters, 1, true},
      {ManifestSectionId::kWorkloadOffsets, num_users + 1, 8, true},
      {ManifestSectionId::kPrefOffsets, num_users + 1, 8,
       meta.has_preferences},
      {ManifestSectionId::kLowRankB, lr_count, 8, meta.has_lowrank},
      {ManifestSectionId::kLowRankL, lr_count, 8, meta.has_lowrank},
  };
  for (const RawSpec& spec : specs) {
    const AlignedSectionView* s = find(spec.id);
    if (s == nullptr) {
      if (!spec.required) continue;
      return Status::ParseError(what + " is missing required section '" +
                                ManifestSectionName(spec.id) + "'");
    }
    if (!SizeMatches(s->size, spec.count, spec.elem)) {
      return Status::ParseError(
          what + " section '" + ManifestSectionName(spec.id) +
          "' byte range does not back the element count the metadata "
          "claims");
    }
  }
  const char* base = artifact->manifest_.data();
  artifact->cluster_of_ = reinterpret_cast<const int64_t*>(
      base + find(ManifestSectionId::kClusterOf)->offset);
  artifact->cluster_sizes_ = reinterpret_cast<const int64_t*>(
      base + find(ManifestSectionId::kClusterSizes)->offset);
  artifact->sanitized_ = reinterpret_cast<const uint8_t*>(
      base + find(ManifestSectionId::kSanitizedFlags)->offset);
  artifact->workload_offsets_ = reinterpret_cast<const uint64_t*>(
      base + find(ManifestSectionId::kWorkloadOffsets)->offset);
  if (meta.has_preferences) {
    artifact->pref_offsets_ = reinterpret_cast<const uint64_t*>(
        base + find(ManifestSectionId::kPrefOffsets)->offset);
  }
  if (meta.has_lowrank) {
    artifact->lowrank_b_ = reinterpret_cast<const double*>(
        base + find(ManifestSectionId::kLowRankB)->offset);
    artifact->lowrank_l_ = reinterpret_cast<const double*>(
        base + find(ManifestSectionId::kLowRankL)->offset);
  }
  artifact->total_bytes_ = artifact->manifest_.size();

  // Shard-set geometry: the table must partition [0, num_clusters) into
  // contiguous ranges, one per shard.
  if (artifact->table_.size() != meta.shard_count ||
      meta.shard_count == 0) {
    return Status::ParseError(what +
                              ": shard table size disagrees with shard_count");
  }
  for (size_t s = 0; s < artifact->table_.size(); ++s) {
    const ShardTableEntry& e = artifact->table_[s];
    const int64_t expect_begin =
        s == 0 ? 0 : artifact->table_[s - 1].cluster_end;
    if (e.cluster_begin != expect_begin || e.cluster_end < e.cluster_begin ||
        (s + 1 == artifact->table_.size() &&
         e.cluster_end != meta.num_clusters)) {
      return Status::ParseError(
          what + ": shard cluster ranges do not partition the clusters");
    }
  }

  // Open and validate every shard before exposing anything.
  const std::string dir = ManifestDir(manifest_path);
  artifact->shard_files_.reserve(artifact->table_.size());
  artifact->shards_.reserve(artifact->table_.size());
  for (size_t s = 0; s < artifact->table_.size(); ++s) {
    const ShardTableEntry& e = artifact->table_[s];
    const std::string shard_path = dir + e.file;
    const std::string shard_what = "artifact shard '" + e.file + "'";

    const fault::FaultKind shard_fault = fault::Hit("shard.read");
    if (shard_fault == fault::FaultKind::kIoError) {
      return Status::IoError("injected read failure for '" + shard_path +
                             "'");
    }
    if (shard_fault == fault::FaultKind::kLatency) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    Result<MappedFile> opened = MappedFile::Open(shard_path,
                                                 options.use_mmap);
    if (!opened.ok()) {
      if (opened.status().code() == StatusCode::kNotFound) {
        return Status::NotFound("manifest references missing shard file '" +
                                shard_path + "'");
      }
      return opened.status();
    }
    MappedFile file = std::move(*opened);
    if (file.size() != e.file_size) {
      return Status::FailedPrecondition(
          shard_what + " is " + std::to_string(file.size()) +
          " bytes, the manifest expects " + std::to_string(e.file_size) +
          " (foreign or regenerated shard)");
    }

    Result<AlignedContainerView> shard_view = ParseAlignedContainer(
        file.data(), file.size(), kShardMagic, kShardFormatVersion,
        shard_what);
    if (!shard_view.ok()) return shard_view.status();

    auto find_shard = [&](ShardSectionId id) {
      return FindSection(*shard_view, static_cast<uint32_t>(id));
    };
    const AlignedSectionView* header_section =
        find_shard(ShardSectionId::kShardHeader);
    if (header_section == nullptr) {
      return Status::ParseError(shard_what +
                                " is missing its shard_header section");
    }
    // CRC-verify just the header section before trusting its identity
    // fields: a corrupt header must read as corruption, not as a shard
    // from some other dataset.
    Status header_crc = VerifySectionCrc(file.data(), *header_section,
                                         shard_what, "shard_header");
    if (!header_crc.ok()) return header_crc;
    Shard shard;
    Status header_ok = DecodeShardHeader(
        std::string(file.data() + header_section->offset,
                    header_section->size),
        &shard.header);
    if (!header_ok.ok()) return header_ok;

    // Identity gates run BEFORE the frame CRC: a shard mixed in from a
    // different build of the same dataset carries a self-consistent frame
    // that simply isn't the one this manifest recorded, and must report
    // as the mix-up it is (graph/provenance mismatch), not as bit
    // corruption. Most specific first: wrong dataset, then wrong build of
    // the right dataset, then wrong position in the right build.
    if (shard.header.graph_hash != meta.meta.graph_hash) {
      return Status::GraphMismatch(
          shard_what + " was built from a different dataset (fingerprint " +
          std::to_string(shard.header.graph_hash) + ", manifest has " +
          std::to_string(meta.meta.graph_hash) + ")");
    }
    if (shard.header.artifact_token != meta.artifact_token) {
      return Status::ProvenanceMismatch(
          shard_what +
          " belongs to a different build of this dataset (token mismatch)");
    }
    if (shard.header.shard_index != s ||
        shard.header.shard_count != meta.shard_count ||
        shard.header.cluster_begin != e.cluster_begin ||
        shard.header.cluster_end != e.cluster_end ||
        shard.header.num_items != meta.meta.num_items ||
        shard.header.workload_entries != e.workload_entries ||
        shard.header.pref_edges != e.pref_edges) {
      return Status::FailedPrecondition(
          shard_what + " header disagrees with the manifest's shard table");
    }

    // Identity confirmed; now any byte disagreement is corruption.
    if (Crc32(file.data(), shard_view->frame_bytes) != e.frame_crc32) {
      return Status::DataLoss(shard_what +
                              " frame failed its CRC check (bit corruption)");
    }
    for (const AlignedSectionView& sec : shard_view->sections) {
      Status crc = VerifySectionCrc(
          file.data(), sec, shard_what,
          ShardSectionName(static_cast<ShardSectionId>(sec.id)));
      if (!crc.ok()) return crc;
    }

    // Byte ranges must exactly back the counts (same rule as the
    // manifest's raw sections).
    const auto rows =
        static_cast<uint64_t>(e.cluster_end - e.cluster_begin);
    if (num_items != 0 && rows > UINT64_MAX / num_items) {
      return Status::ParseError(shard_what + ": noisy row count overflows");
    }
    struct ShardSpec {
      ShardSectionId id;
      uint64_t count;
      uint64_t elem;
      bool required;
    };
    const ShardSpec shard_specs[] = {
        {ShardSectionId::kNoisyRows, rows * num_items, 8, true},
        {ShardSectionId::kNoisyRowsF32, rows * num_items, 4,
         meta.has_noisy_f32},
        {ShardSectionId::kWorkloadEntries, e.workload_entries,
         sizeof(WorkloadEntry), true},
        {ShardSectionId::kPrefItems, e.pref_edges, 8, meta.has_preferences},
        {ShardSectionId::kPrefWeights, e.pref_edges, 8,
         meta.has_preferences},
    };
    for (const ShardSpec& spec : shard_specs) {
      const AlignedSectionView* sec = find_shard(spec.id);
      if (sec == nullptr) {
        if (!spec.required) continue;
        return Status::ParseError(shard_what + " is missing section '" +
                                  ShardSectionName(spec.id) + "'");
      }
      if (!SizeMatches(sec->size, spec.count, spec.elem)) {
        return Status::ParseError(
            shard_what + " section '" + ShardSectionName(spec.id) +
            "' byte range does not back the count its header claims");
      }
    }
    shard.noisy_rows = reinterpret_cast<const double*>(
        file.data() + find_shard(ShardSectionId::kNoisyRows)->offset);
    if (meta.has_noisy_f32) {
      const AlignedSectionView* f32 =
          find_shard(ShardSectionId::kNoisyRowsF32);
      if (f32 == nullptr) {
        return Status::ParseError(
            shard_what + " is missing section 'noisy_rows_f32' the "
            "manifest promised");
      }
      shard.noisy_rows_f32 =
          reinterpret_cast<const float*>(file.data() + f32->offset);
    }
    shard.workload_entries = reinterpret_cast<const WorkloadEntry*>(
        file.data() + find_shard(ShardSectionId::kWorkloadEntries)->offset);
    if (meta.has_preferences) {
      shard.pref_items = reinterpret_cast<const int64_t*>(
          file.data() + find_shard(ShardSectionId::kPrefItems)->offset);
      shard.pref_weights = reinterpret_cast<const double*>(
          file.data() + find_shard(ShardSectionId::kPrefWeights)->offset);
    }
    artifact->total_bytes_ += file.size();
    artifact->shards_.push_back(shard);
    artifact->shard_files_.push_back(std::move(file));
  }

  static obs::Gauge& bytes_gauge =
      obs::GetGauge("privrec.artifact.mapped_bytes");
  bytes_gauge.Set(static_cast<double>(artifact->total_bytes_));
  return std::shared_ptr<const MappedArtifact>(std::move(artifact));
}

}  // namespace privrec::serving
