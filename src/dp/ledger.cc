#include "dp/ledger.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "common/fault_injection.h"
#include "common/fsync.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace privrec::dp {

namespace {

constexpr std::string_view kHeader = "# privrec budget ledger v1";

// FNV-1a 64-bit over the record body; stable across builds and platforms
// (std::hash is not).
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string HexU64(uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

std::string HexDouble(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

// Splits "body crc" and verifies the checksum.
bool ChecksumOk(std::string_view line, std::string_view* body) {
  size_t space = line.rfind(' ');
  if (space == std::string_view::npos) return false;
  *body = line.substr(0, space);
  return HexU64(Fnv1a(*body)) == line.substr(space + 1);
}

}  // namespace

Result<BudgetLedger> BudgetLedger::Open(const std::string& path,
                                        double total_epsilon) {
  PRIVREC_CHECK(total_epsilon >= 0.0);
  if (fault::Hit("ledger.open") == fault::FaultKind::kIoError) {
    return Status::IoError("cannot open ledger " + path +
                           " (injected fault)");
  }

  BudgetLedger ledger;
  ledger.path_ = path;
  ledger.total_epsilon_ = total_epsilon;

  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec);
  if (!exists) {
    ledger.out_.reset(std::fopen(path.c_str(), "w"));
    if (!ledger.out_) {
      return Status::IoError("cannot create ledger " + path);
    }
    const std::string total_body = "total " + HexDouble(total_epsilon);
    Status written = ledger.WriteDurably(std::string(kHeader) + '\n' +
                                         total_body + ' ' +
                                         HexU64(Fnv1a(total_body)) + '\n');
    if (!written.ok()) return written;
    // The new file's directory entry must survive a crash too.
    if (Status synced = SyncDirectoryOf(path); !synced.ok()) return synced;
    return ledger;
  }

  // Replay an existing ledger.
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open ledger " + path);
  std::string line;
  int64_t line_no = 0;
  bool saw_total = false;
  // Byte offset of the end of the last fully-valid line, for torn-tail
  // truncation.
  uint64_t valid_bytes = 0;
  bool torn = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (in.eof() && !line.empty()) {
      // Final line without a newline: a torn append. Drop it.
      torn = true;
      break;
    }
    if (line_no == 1) {
      if (Trim(line) != kHeader) {
        return Status::ParseError(path + ": not a privrec budget ledger");
      }
      valid_bytes += line.size() + 1;
      continue;
    }
    std::string_view body;
    if (!ChecksumOk(Trim(line), &body)) {
      // A checksum failure is tolerable only on the final line (torn
      // write); anywhere else the ledger is corrupt.
      if (in.peek() == std::ifstream::traits_type::eof()) {
        torn = true;
        break;
      }
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": ledger checksum mismatch");
    }
    auto fields = SplitWhitespace(body);
    if (fields.empty()) {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": empty ledger record");
    }
    if (fields[0] == "total") {
      double total = 0.0;
      if (fields.size() != 2 || !ParseDouble(fields[1], &total)) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad total record");
      }
      if (total != total_epsilon) {
        return Status::FailedPrecondition(
            path + ": ledger total ε " + FormatDouble(total, 6) +
            " does not match session total ε " +
            FormatDouble(total_epsilon, 6));
      }
      saw_total = true;
    } else if (fields[0] == "intent") {
      int64_t seq = 0;
      double eps = 0.0;
      if (fields.size() != 4 || !ParseInt64(fields[1], &seq) ||
          !ParseDouble(fields[3], &eps) || eps < 0.0) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad intent record");
      }
      ledger.entries_.push_back(
          {seq, std::string(fields[2]), eps, false});
    } else if (fields[0] == "commit") {
      int64_t seq = 0;
      if (fields.size() != 2 || !ParseInt64(fields[1], &seq)) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad commit record");
      }
      bool found = false;
      for (Entry& e : ledger.entries_) {
        if (e.seq == seq) {
          e.committed = true;
          found = true;
        }
      }
      if (!found) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": commit without intent for seq " +
                                  std::to_string(seq));
      }
    } else {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": unknown ledger record type");
    }
    valid_bytes += line.size() + 1;
  }
  in.close();
  if (!saw_total) {
    return Status::ParseError(path + ": ledger has no total record");
  }
  if (torn) {
    // Truncate the torn tail so future appends start on a clean boundary.
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) {
      return Status::IoError(path + ": cannot truncate torn ledger tail");
    }
    ledger.recovered_torn_tail_ = true;
  }

  ledger.out_.reset(std::fopen(path.c_str(), "a"));
  if (!ledger.out_) {
    return Status::IoError("cannot reopen ledger " + path +
                           " for appending");
  }
  static obs::Counter& opens = obs::GetCounter("privrec.dp.ledger_opens");
  static obs::Counter& replayed =
      obs::GetCounter("privrec.dp.ledger_entries_replayed");
  static obs::Counter& torn_tails =
      obs::GetCounter("privrec.dp.ledger_torn_tails");
  opens.Increment();
  replayed.Add(static_cast<int64_t>(ledger.entries_.size()));
  if (ledger.recovered_torn_tail_) torn_tails.Increment();
  return ledger;
}

Status BudgetLedger::WriteDurably(std::string_view bytes) {
  std::FILE* file = out_.get();
  std::string error;
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
      std::fflush(file) != 0) {
    error = "ledger write to " + path_ + " failed: " + std::strerror(errno);
  } else if (fault::Hit("ledger.sync") == fault::FaultKind::kIoError) {
    error = "ledger fsync failed (injected fault)";
  } else if (::fsync(::fileno(file)) != 0) {
    error = "ledger fsync of " + path_ + " failed: " + std::strerror(errno);
  } else {
    return Status::Ok();
  }
  // Bytes may have reached the file: a retried append would journal a
  // second record behind (or glued onto) this one.
  out_.reset();
  return Status::IoError(error);
}

Status BudgetLedger::AppendLine(const std::string& body) {
  if (!out_) {
    return Status::FailedPrecondition("ledger is not open");
  }
  const std::string record = body + ' ' + HexU64(Fnv1a(body));
  switch (fault::Hit("ledger.append")) {
    case fault::FaultKind::kIoError:
      return Status::IoError("ledger append failed (injected fault)");
    case fault::FaultKind::kShortRead:
      // Simulate a crash mid-write: half the record reaches the file and
      // no newline does. Open() must recover from this.
      (void)WriteDurably(std::string_view(record).substr(0, record.size() / 2));
      out_.reset();
      return Status::IoError("ledger append torn (injected fault)");
    default:
      break;
  }
  return WriteDurably(record + '\n');
}

Status BudgetLedger::AppendIntent(int64_t seq, const std::string& group,
                                  double epsilon) {
  PRIVREC_CHECK(epsilon >= 0.0);
  PRIVREC_CHECK_MSG(group.find_first_of(" \t\r\n") == std::string::npos,
                    "ledger group names must contain no whitespace");
  Status s = AppendLine("intent " + std::to_string(seq) + " " + group +
                        " " + HexDouble(epsilon));
  if (!s.ok()) return s;
  entries_.push_back({seq, group, epsilon, false});
  static obs::Counter& intents =
      obs::GetCounter("privrec.dp.ledger_intents");
  intents.Increment();
  return Status::Ok();
}

Status BudgetLedger::AppendCommit(int64_t seq) {
  PRIVREC_CHECK_MSG(HasIntent(seq), "commit without intent");
  Status s = AppendLine("commit " + std::to_string(seq));
  if (!s.ok()) return s;
  for (Entry& e : entries_) {
    if (e.seq == seq) e.committed = true;
  }
  static obs::Counter& commits =
      obs::GetCounter("privrec.dp.ledger_commits");
  commits.Increment();
  return Status::Ok();
}

bool BudgetLedger::HasIntent(int64_t seq) const {
  for (const Entry& e : entries_) {
    if (e.seq == seq) return true;
  }
  return false;
}

bool BudgetLedger::IsCommitted(int64_t seq) const {
  for (const Entry& e : entries_) {
    if (e.seq == seq && e.committed) return true;
  }
  return false;
}

int64_t BudgetLedger::NumCommitted() const {
  int64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.committed) ++n;
  }
  return n;
}

std::string LedgerAuditReport::ToString() const {
  std::string s = "ledger audit: total=" + FormatDouble(total_epsilon, 6) +
                  " spent=" + FormatDouble(epsilon_spent, 6) +
                  " intents=" + std::to_string(intents) + " commits=" +
                  std::to_string(commits) + " uncommitted=" +
                  std::to_string(uncommitted);
  if (recovered_torn_tail) s += " torn-tail";
  if (violations.empty()) {
    s += " OK";
  } else {
    for (const std::string& v : violations) s += "\n  VIOLATION: " + v;
  }
  return s;
}

Result<LedgerAuditReport> AuditLedgerReplay(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open ledger " + path);

  LedgerAuditReport report;
  bool saw_total = false;
  // Per-(group, seq) intent occurrences, per-group last intent seq, and
  // the set of committed seqs — everything the invariants need.
  std::set<std::pair<std::string, int64_t>> seen_intents;
  std::map<std::string, int64_t> last_seq;
  std::map<int64_t, int64_t> intents_by_seq;
  std::set<int64_t> committed;

  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (in.eof() && !line.empty()) {
      report.recovered_torn_tail = true;
      break;
    }
    if (line_no == 1) {
      if (Trim(line) != kHeader) {
        return Status::ParseError(path + ": not a privrec budget ledger");
      }
      continue;
    }
    std::string_view body;
    if (!ChecksumOk(Trim(line), &body)) {
      if (in.peek() == std::ifstream::traits_type::eof()) {
        report.recovered_torn_tail = true;
        break;
      }
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": ledger checksum mismatch");
    }
    auto fields = SplitWhitespace(body);
    if (fields.empty()) {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": empty ledger record");
    }
    if (fields[0] == "total") {
      double total = 0.0;
      if (fields.size() != 2 || !ParseDouble(fields[1], &total)) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad total record");
      }
      if (saw_total) {
        report.violations.push_back("line " + std::to_string(line_no) +
                                    ": duplicate total record");
      }
      report.total_epsilon = total;
      saw_total = true;
    } else if (fields[0] == "intent") {
      int64_t seq = 0;
      double eps = 0.0;
      if (fields.size() != 4 || !ParseInt64(fields[1], &seq) ||
          !ParseDouble(fields[3], &eps) || eps < 0.0 ||
          !std::isfinite(eps)) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad intent record");
      }
      const std::string group(fields[2]);
      if (!seen_intents.insert({group, seq}).second) {
        report.violations.push_back(
            "line " + std::to_string(line_no) + ": duplicate intent for " +
            group + "/" + std::to_string(seq) +
            " — replaying both would double-spend ε");
      } else if (auto it = last_seq.find(group);
                 it != last_seq.end() && seq <= it->second) {
        report.violations.push_back(
            "line " + std::to_string(line_no) + ": intent seq " +
            std::to_string(seq) + " for group " + group +
            " does not advance past " + std::to_string(it->second));
      }
      if (auto it = last_seq.find(group); it == last_seq.end()) {
        last_seq[group] = seq;
      } else {
        it->second = std::max(it->second, seq);
      }
      ++intents_by_seq[seq];
      ++report.intents;
      report.epsilon_spent += eps;
    } else if (fields[0] == "commit") {
      int64_t seq = 0;
      if (fields.size() != 2 || !ParseInt64(fields[1], &seq)) {
        return Status::ParseError(path + ":" + std::to_string(line_no) +
                                  ": bad commit record");
      }
      if (intents_by_seq.find(seq) == intents_by_seq.end()) {
        report.violations.push_back(
            "line " + std::to_string(line_no) +
            ": commit without intent for seq " + std::to_string(seq));
      } else if (!committed.insert(seq).second) {
        report.violations.push_back("line " + std::to_string(line_no) +
                                    ": duplicate commit for seq " +
                                    std::to_string(seq));
      }
      ++report.commits;
    } else {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": unknown ledger record type");
    }
  }
  if (!saw_total) {
    return Status::ParseError(path + ": ledger has no total record");
  }
  for (const auto& [seq, count] : intents_by_seq) {
    if (committed.find(seq) == committed.end()) {
      report.uncommitted += count;
    }
  }
  if (report.epsilon_spent >
      report.total_epsilon * (1.0 + 1e-9)) {
    report.violations.push_back(
        "spent ε " + FormatDouble(report.epsilon_spent, 6) +
        " exceeds ledger total " +
        FormatDouble(report.total_epsilon, 6));
  }
  return report;
}

void BudgetLedger::ReplayInto(PrivacyBudget* budget) const {
  std::map<std::string, double> spent;
  for (const Entry& e : entries_) {
    spent[e.group] += e.epsilon;
  }
  for (const auto& [group, eps] : spent) {
    budget->RestoreGroupSpent(group, eps);
  }
}

}  // namespace privrec::dp
