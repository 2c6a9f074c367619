// StreamWal: the crash-safe write-ahead journal for the edge-stream
// ingester (the streaming counterpart of dp/ledger's text journal).
//
// Why a WAL: the streaming pipeline must survive a kill at ANY instant and
// resume to a bit-identical graph state — the re-publication scheduler and
// the ledger's re-derivation discipline both assume the delta prefix is
// exactly reproducible. Every delta is therefore journaled BEFORE it is
// applied; replay on open rebuilds the in-memory state from the journal.
//
// On-disk format (binary, little-endian):
//   header   "PVRECWAL" (8 bytes) + u32 version (= 1)
//   frame    u32 payload_len | u32 crc32(payload) | payload
//   payload  u8 record type | i64 a | i64 b | u64 wbits   (25 bytes)
// Fixed-size payloads keep torn-tail detection trivial: a final frame cut
// at any byte offset either lacks header bytes, lacks payload bytes, or
// fails its CRC — all three are truncated away on open (the record was
// mid-write at the crash; the writer observed the append as failed, so the
// delta was never applied). A bad length or a CRC mismatch on any
// NON-final frame is real corruption and fails the open with kDataLoss;
// whether a frame is final follows from the fixed frame size, never from
// its length field.
//
// Durability: appends go through a POSIX fd; `fsync_every = n` fsyncs
// every nth append (1 = every record, the default; 0 = never, leaving
// durability to the OS — the replay protocol stays correct either way
// because a lost suffix just replays fewer deltas).
//
// Fault points: stream.wal.open (kIoError), stream.wal.append (kIoError:
// the append fails cleanly, nothing written; kShortRead: half the frame
// reaches the file — a crash mid-write — and the call fails), and
// stream.wal.sync (kIoError: the frame is written but the fsync fails).

#ifndef PRIVREC_STREAM_WAL_H_
#define PRIVREC_STREAM_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace privrec::stream {

enum class WalRecordType : uint8_t {
  kAddSocial = 1,         // a = user u, b = user v
  kRemoveSocial = 2,      // a = user u, b = user v
  kAddPreference = 3,     // a = user, b = item, wbits = weight bits
  kRemovePreference = 4,  // a = user, b = item
  // Audit record written AFTER a release commits: a = snapshot index,
  // b = delta records applied so far, wbits = graph fingerprint. Replay
  // uses it to restore the re-publication scheduler's trigger baselines.
  kPublishMark = 5,
};

const char* WalRecordTypeName(WalRecordType type);

struct WalRecord {
  WalRecordType type = WalRecordType::kAddSocial;
  int64_t a = 0;
  int64_t b = 0;
  uint64_t wbits = 0;

  double weight() const;
  void set_weight(double w);

  static WalRecord AddSocial(int64_t u, int64_t v);
  static WalRecord RemoveSocial(int64_t u, int64_t v);
  static WalRecord AddPreference(int64_t user, int64_t item, double weight);
  static WalRecord RemovePreference(int64_t user, int64_t item);
  static WalRecord PublishMark(int64_t snapshot_index, int64_t deltas,
                               uint64_t fingerprint);

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

// Byte sizes of the format, exported so tests can exercise torn-tail
// truncation at every offset within a frame.
inline constexpr uint64_t kWalHeaderBytes = 12;
inline constexpr uint64_t kWalPayloadBytes = 25;
inline constexpr uint64_t kWalFrameBytes = 8 + kWalPayloadBytes;

// Result of parsing a journal file (see StreamWal::Read).
struct WalReplay {
  std::vector<WalRecord> records;
  // A partially-written final frame was dropped.
  bool recovered_torn_tail = false;
  // Byte offset of the end of the last fully-valid frame.
  uint64_t valid_bytes = 0;
};

class StreamWal {
 public:
  StreamWal() = default;
  ~StreamWal();
  StreamWal(StreamWal&& other) noexcept;
  StreamWal& operator=(StreamWal&& other) noexcept;
  StreamWal(const StreamWal&) = delete;
  StreamWal& operator=(const StreamWal&) = delete;

  // Opens `path` for appending, creating it (with a fresh header) if
  // absent. An existing journal is replayed: every frame's CRC must
  // verify, and a torn final frame is truncated away (recoverable crash),
  // while corruption anywhere else fails with kDataLoss.
  static Result<StreamWal> Open(const std::string& path,
                                int64_t fsync_every = 1);

  // Parses a journal without opening it for append and without modifying
  // the file (audit / tooling path; a torn tail is reported, not fixed).
  static Result<WalReplay> Read(const std::string& path);

  // Journals one record (write-ahead: call BEFORE applying the delta).
  Status Append(const WalRecord& record);

  // Forces an fsync regardless of the fsync_every cadence.
  Status Sync();

  const std::string& path() const { return path_; }
  // Records read back at Open() time, in journal order.
  const std::vector<WalRecord>& replayed() const { return replayed_; }
  // True if Open() dropped a partially-written final frame.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  // Successful Append() calls since Open().
  int64_t records_appended() const { return records_appended_; }

 private:
  std::string path_;
  int fd_ = -1;
  int64_t fsync_every_ = 1;
  int64_t records_appended_ = 0;
  std::vector<WalRecord> replayed_;
  bool recovered_torn_tail_ = false;
};

}  // namespace privrec::stream

#endif  // PRIVREC_STREAM_WAL_H_
