// BudgetLedger: a crash-safe write-ahead journal for PrivacyBudget.
//
// Why a ledger: a restarted session that forgot its spent ε and re-released
// with fresh noise would silently double-spend the privacy budget — under
// sequential composition (Theorem 2) every fresh sample is a new charge,
// so crash recovery MUST replay the paid balance rather than resample. The
// protocol is write-ahead: a session journals the charge (an `intent`)
// BEFORE sampling noise, and journals a `commit` once the release is out.
// A crash between the two leaves a paid-but-unreleased intent; on restart
// the ε still counts as spent, and the release may only be reissued from
// the SAME deterministic noise stream (free under DP — identical output),
// never re-randomized.
//
// On-disk format (append-only text, one record per line, FNV-1a checksum
// per line, hexfloat ε for exact round-trips):
//   # privrec budget ledger v1
//   total <hexfloat> <crc>
//   intent <seq> <group> <hexfloat-eps> <crc>
//   commit <seq> <crc>
// A torn final line (partial write at crash) is detected by checksum and
// truncated away on open; corruption anywhere else is an error.
//
// Durability: the header and every record are fsynced before Open or the
// append returns, so a journaled intent survives a host crash, not just a
// process kill. A write or fsync that fails after bytes may have reached
// the file closes the ledger: later appends fail with
// kFailedPrecondition, so a retry can never journal a second intent
// behind the first. Reopening replays whatever reached the disk.
//
// Fault points: ledger.open (kIoError), ledger.append (kIoError: the
// append fails cleanly; kShortRead: half the record is written, simulating
// a crash mid-write), ledger.sync (kIoError: the record is written but
// the fsync fails).

#ifndef PRIVREC_DP_LEDGER_H_
#define PRIVREC_DP_LEDGER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dp/budget.h"

namespace privrec::dp {

class BudgetLedger {
 public:
  struct Entry {
    int64_t seq = 0;
    std::string group;
    double epsilon = 0.0;
    bool committed = false;

    bool operator==(const Entry&) const = default;
  };

  // A detached ledger; Append* calls fail until Open() succeeds.
  BudgetLedger() = default;

  BudgetLedger(BudgetLedger&&) = default;
  BudgetLedger& operator=(BudgetLedger&&) = default;

  // Opens `path`, creating it (with the given total) if absent. An
  // existing ledger is replayed: its recorded total must equal
  // `total_epsilon` exactly (else kFailedPrecondition), its checksums
  // must verify, every intent ε must be finite and ≥ 0, and no group's
  // intents may sum past PrivacyBudget::limit() (else kParseError with
  // path:line); a torn final line is truncated away.
  static Result<BudgetLedger> Open(const std::string& path,
                                   double total_epsilon);

  // Journals a charge intent (write-ahead: call BEFORE sampling noise).
  // The group name must contain no whitespace; a non-finite ε is
  // kInvalidArgument. Fsyncs before returning.
  Status AppendIntent(int64_t seq, const std::string& group, double epsilon);

  // Marks `seq` released. Requires a prior intent for `seq`.
  Status AppendCommit(int64_t seq);

  const std::string& path() const { return path_; }
  double total_epsilon() const { return total_epsilon_; }
  // True if Open() recovered from a partially-written final record.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

  // Replayed journal state, in append order.
  const std::vector<Entry>& entries() const { return entries_; }
  bool HasIntent(int64_t seq) const;
  bool IsCommitted(int64_t seq) const;
  int64_t NumCommitted() const;

  // Applies the replayed intents to `budget` (sum of intent ε per group —
  // intents without commits still count: that ε left the building).
  void ReplayInto(PrivacyBudget* budget) const;

 private:
  struct FileCloser {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  Status AppendLine(const std::string& body);
  // Writes `bytes` and fsyncs them; closes the ledger on any failure.
  Status WriteDurably(std::string_view bytes);

  std::string path_;
  double total_epsilon_ = 0.0;
  bool recovered_torn_tail_ = false;
  std::vector<Entry> entries_;
  std::unique_ptr<std::FILE, FileCloser> out_;  // null: closed
};

// The result of an independent ledger replay audit (AuditLedgerReplay).
struct LedgerAuditReport {
  double total_epsilon = 0.0;
  // Σ intent ε across all groups — every journaled intent is paid ε,
  // committed or not.
  double epsilon_spent = 0.0;
  int64_t intents = 0;
  int64_t commits = 0;
  // Intent records whose seq was never committed: paid-but-unreleased
  // charges (at most one trailing intent in a healthy session).
  int64_t uncommitted = 0;
  // The file ends in a partially-written record. Reported, not repaired —
  // the audit never mutates the ledger.
  bool recovered_torn_tail = false;
  // Human-readable invariant violations; empty for a clean ledger.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Re-derives all paid releases from the journal at `path` and checks the
// no-double-spend invariants:
//   - no duplicate intent for the same (group, seq);
//   - intent seqs strictly increase within each group;
//   - every commit references a prior intent, and commits once;
//   - Σ intent ε never exceeds the recorded total (tolerance 1e-9·total).
// Deliberately a from-scratch parser rather than a call into
// BudgetLedger::Open — an auditor re-derives, it does not trust the
// implementation under audit. Structural corruption mid-file (bad
// checksum, malformed record) is a Status error; a torn FINAL record is
// legal crash fallout and only sets recovered_torn_tail.
Result<LedgerAuditReport> AuditLedgerReplay(const std::string& path);

}  // namespace privrec::dp

#endif  // PRIVREC_DP_LEDGER_H_
