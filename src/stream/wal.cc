#include "stream/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/fsync.h"
#include "common/macros.h"
#include "obs/metrics.h"

namespace privrec::stream {

namespace {

constexpr char kMagic[8] = {'P', 'V', 'R', 'E', 'C', 'W', 'A', 'L'};
constexpr uint32_t kVersion = 1;

void PutU32(char* p, uint32_t x) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((x >> (8 * i)) & 0xff);
}

uint32_t GetU32(const char* p) {
  uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return x;
}

void PutU64(char* p, uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((x >> (8 * i)) & 0xff);
}

uint64_t GetU64(const char* p) {
  uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return x;
}

void EncodePayload(const WalRecord& r, char* out) {
  out[0] = static_cast<char>(r.type);
  PutU64(out + 1, static_cast<uint64_t>(r.a));
  PutU64(out + 9, static_cast<uint64_t>(r.b));
  PutU64(out + 17, r.wbits);
}

bool DecodePayload(const char* in, WalRecord* r) {
  const uint8_t type = static_cast<uint8_t>(in[0]);
  if (type < static_cast<uint8_t>(WalRecordType::kAddSocial) ||
      type > static_cast<uint8_t>(WalRecordType::kPublishMark)) {
    return false;
  }
  r->type = static_cast<WalRecordType>(type);
  r->a = static_cast<int64_t>(GetU64(in + 1));
  r->b = static_cast<int64_t>(GetU64(in + 9));
  r->wbits = GetU64(in + 17);
  return true;
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("wal append to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kAddSocial:
      return "add_social";
    case WalRecordType::kRemoveSocial:
      return "remove_social";
    case WalRecordType::kAddPreference:
      return "add_preference";
    case WalRecordType::kRemovePreference:
      return "remove_preference";
    case WalRecordType::kPublishMark:
      return "publish_mark";
  }
  return "unknown";
}

double WalRecord::weight() const { return std::bit_cast<double>(wbits); }

void WalRecord::set_weight(double w) { wbits = std::bit_cast<uint64_t>(w); }

WalRecord WalRecord::AddSocial(int64_t u, int64_t v) {
  return {WalRecordType::kAddSocial, u, v, 0};
}

WalRecord WalRecord::RemoveSocial(int64_t u, int64_t v) {
  return {WalRecordType::kRemoveSocial, u, v, 0};
}

WalRecord WalRecord::AddPreference(int64_t user, int64_t item,
                                   double weight) {
  WalRecord r{WalRecordType::kAddPreference, user, item, 0};
  r.set_weight(weight);
  return r;
}

WalRecord WalRecord::RemovePreference(int64_t user, int64_t item) {
  return {WalRecordType::kRemovePreference, user, item, 0};
}

WalRecord WalRecord::PublishMark(int64_t snapshot_index, int64_t deltas,
                                 uint64_t fingerprint) {
  return {WalRecordType::kPublishMark, snapshot_index, deltas, fingerprint};
}

StreamWal::~StreamWal() {
  if (fd_ >= 0) ::close(fd_);
}

StreamWal::StreamWal(StreamWal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      fsync_every_(other.fsync_every_),
      records_appended_(other.records_appended_),
      replayed_(std::move(other.replayed_)),
      recovered_torn_tail_(other.recovered_torn_tail_) {
  other.fd_ = -1;
}

StreamWal& StreamWal::operator=(StreamWal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    fsync_every_ = other.fsync_every_;
    records_appended_ = other.records_appended_;
    replayed_ = std::move(other.replayed_);
    recovered_torn_tail_ = other.recovered_torn_tail_;
    other.fd_ = -1;
  }
  return *this;
}

Result<WalReplay> StreamWal::Read(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open wal '" + path + "'");
  const uint64_t size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  std::vector<char> bytes(size);
  if (size > 0) {
    in.read(bytes.data(), static_cast<std::streamsize>(size));
    if (!in) return Status::IoError("read of wal '" + path + "' failed");
  }

  WalReplay replay;
  if (size < kWalHeaderBytes) {
    // A header cut short can only happen on a crash during creation; the
    // journal holds no records, so it is recoverable, not corrupt.
    replay.recovered_torn_tail = size > 0;
    replay.valid_bytes = 0;
    return replay;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0 ||
      GetU32(bytes.data() + 8) != kVersion) {
    return Status::ParseError("'" + path + "' is not a privrec stream wal");
  }

  uint64_t off = kWalHeaderBytes;
  while (off < size) {
    const uint64_t remaining = size - off;
    if (remaining < 8) {
      replay.recovered_torn_tail = true;  // torn frame header
      break;
    }
    const uint32_t len = GetU32(bytes.data() + off);
    const uint32_t crc = GetU32(bytes.data() + off + 4);
    // Finality comes from the fixed frame size, never from the length
    // field: a corrupted length must not turn a mid-file frame into a
    // "tail" that the open then truncates away.
    const bool is_final_frame = off + kWalFrameBytes >= size;
    if (len != kWalPayloadBytes) {
      // Garbage length: torn header bytes if this is the tail, corruption
      // otherwise.
      if (is_final_frame) {
        replay.recovered_torn_tail = true;
        break;
      }
      return Status::DataLoss("'" + path + "': bad frame length at offset " +
                              std::to_string(off));
    }
    if (remaining < 8 + kWalPayloadBytes) {
      replay.recovered_torn_tail = true;  // torn payload
      break;
    }
    const char* payload = bytes.data() + off + 8;
    WalRecord record;
    if (Crc32(payload, kWalPayloadBytes) != crc ||
        !DecodePayload(payload, &record)) {
      if (is_final_frame) {
        replay.recovered_torn_tail = true;  // torn final payload bytes
        break;
      }
      return Status::DataLoss("'" + path +
                              "': frame checksum mismatch at offset " +
                              std::to_string(off) + " (bit corruption)");
    }
    replay.records.push_back(record);
    off += kWalFrameBytes;
  }
  replay.valid_bytes = replay.records.size() * kWalFrameBytes +
                       (size >= kWalHeaderBytes ? kWalHeaderBytes : 0);
  return replay;
}

Result<StreamWal> StreamWal::Open(const std::string& path,
                                  int64_t fsync_every) {
  PRIVREC_CHECK(fsync_every >= 0);
  if (fault::Hit("stream.wal.open") == fault::FaultKind::kIoError) {
    return Status::IoError("cannot open wal " + path + " (injected fault)");
  }

  StreamWal wal;
  wal.path_ = path;
  wal.fsync_every_ = fsync_every;

  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec);
  if (exists) {
    Result<WalReplay> replay = Read(path);
    if (!replay.ok()) return replay.status();
    wal.replayed_ = std::move(replay->records);
    wal.recovered_torn_tail_ = replay->recovered_torn_tail;
    if (replay->recovered_torn_tail) {
      // Truncate the torn tail so appends start on a clean frame boundary.
      // valid_bytes == 0 means the header itself was torn; rewrite it.
      if (replay->valid_bytes >= kWalHeaderBytes) {
        std::filesystem::resize_file(path, replay->valid_bytes, ec);
        if (ec) {
          return Status::IoError(path + ": cannot truncate torn wal tail");
        }
      } else {
        std::filesystem::remove(path, ec);
      }
      static obs::Counter& torn =
          obs::GetCounter("privrec.stream.wal_torn_tails");
      torn.Increment();
    }
  }

  const bool need_header =
      !std::filesystem::exists(path, ec) ||
      std::filesystem::file_size(path, ec) < kWalHeaderBytes;
  wal.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                   0644);
  if (wal.fd_ < 0) {
    return Status::IoError("cannot open wal '" + path +
                           "': " + std::strerror(errno));
  }
  if (need_header) {
    char header[kWalHeaderBytes];
    std::memcpy(header, kMagic, sizeof(kMagic));
    PutU32(header + 8, kVersion);
    Status written = WriteAll(wal.fd_, header, sizeof(header), path);
    if (!written.ok()) return written;
    if (::fsync(wal.fd_) != 0) {
      return Status::IoError("cannot sync wal header to '" + path + "'");
    }
    // The new file's directory entry must survive a crash too.
    if (Status synced = SyncDirectoryOf(path); !synced.ok()) return synced;
  }

  static obs::Counter& opens = obs::GetCounter("privrec.stream.wal_opens");
  static obs::Counter& replayed_records =
      obs::GetCounter("privrec.stream.wal_records_replayed");
  opens.Increment();
  replayed_records.Add(static_cast<int64_t>(wal.replayed_.size()));
  return wal;
}

Status StreamWal::Append(const WalRecord& record) {
  if (fd_ < 0) return Status::FailedPrecondition("wal is not open");

  char frame[kWalFrameBytes];
  char* payload = frame + 8;
  EncodePayload(record, payload);
  PutU32(frame, static_cast<uint32_t>(kWalPayloadBytes));
  PutU32(frame + 4, Crc32(payload, kWalPayloadBytes));

  switch (fault::Hit("stream.wal.append")) {
    case fault::FaultKind::kIoError:
      return Status::IoError("wal append failed (injected fault)");
    case fault::FaultKind::kShortRead: {
      // Crash mid-write: half the frame reaches the disk. Open() must
      // truncate it away and the caller must treat the delta as unapplied.
      Status torn = WriteAll(fd_, frame, kWalFrameBytes / 2, path_);
      if (torn.ok()) ::fsync(fd_);
      return Status::IoError("wal append torn (injected fault)");
    }
    default:
      break;
  }

  Status written = WriteAll(fd_, frame, kWalFrameBytes, path_);
  if (!written.ok()) return written;
  ++records_appended_;

  const bool sync_now =
      fsync_every_ > 0 && (records_appended_ % fsync_every_) == 0;
  if (sync_now) return Sync();
  return Status::Ok();
}

Status StreamWal::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("wal is not open");
  if (fault::Hit("stream.wal.sync") == fault::FaultKind::kIoError) {
    return Status::IoError("wal fsync failed (injected fault)");
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError("wal fsync of '" + path_ +
                           "' failed: " + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace privrec::stream
