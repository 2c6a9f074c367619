// Tests for the write-ahead budget ledger and crash-safe dynamic sessions:
// journal round-trips, torn-tail recovery, corruption detection, and the
// no-double-spend guarantee — a session killed between journaling and
// releasing resumes with the exact cumulative ε and bit-identical releases
// of an uninterrupted run.

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/dynamic_recommender.h"
#include "data/synthetic.h"
#include "dp/ledger.h"
#include "similarity/common_neighbors.h"

namespace privrec::dp {
namespace {

namespace fs = std::filesystem;

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("privrec_ledger_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(LedgerTest, CreateAppendReopenRoundTrip) {
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
    ASSERT_TRUE(ledger->AppendIntent(0, "snapshots", 0.25).ok());
    ASSERT_TRUE(ledger->AppendCommit(0).ok());
    ASSERT_TRUE(ledger->AppendIntent(1, "snapshots", 0.25).ok());
    // No commit for seq 1: simulated crash before release.
  }
  auto reopened = BudgetLedger::Open(path, 1.0);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->recovered_torn_tail());
  ASSERT_EQ(reopened->entries().size(), 2u);
  EXPECT_TRUE(reopened->IsCommitted(0));
  EXPECT_TRUE(reopened->HasIntent(1));
  EXPECT_FALSE(reopened->IsCommitted(1));
  EXPECT_EQ(reopened->NumCommitted(), 1);

  // Both intents count as spent — the uncommitted ε already left.
  PrivacyBudget budget(1.0);
  reopened->ReplayInto(&budget);
  EXPECT_NEAR(budget.GroupSpent("snapshots"), 0.5, 1e-15);
}

TEST_F(LedgerTest, EpsilonRoundTripsExactly) {
  // Hexfloat serialization must round-trip values like 0.1/7 bit-for-bit;
  // a decimal format would drift and break exactly-N accounting.
  const std::string path = Path("budget.ledger");
  const double eps = 0.1 / 7.0;
  {
    auto ledger = BudgetLedger::Open(path, 0.1);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "g", eps).ok());
  }
  auto reopened = BudgetLedger::Open(path, 0.1);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->entries().size(), 1u);
  EXPECT_EQ(reopened->entries()[0].epsilon, eps);  // exact, not NEAR
}

// Open refuses a non-finite intent, so the ledger never journals one.
TEST_F(LedgerTest, NonFiniteIntentIsNotJournaled) {
  const std::string path = Path("budget.ledger");
  auto ledger = BudgetLedger::Open(path, 1.0);
  ASSERT_TRUE(ledger.ok());
  Status appended =
      ledger->AppendIntent(0, "g", std::numeric_limits<double>::infinity());
  EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ledger->entries().empty());
  auto reopened = BudgetLedger::Open(path, 1.0);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->entries().empty());
}

TEST_F(LedgerTest, RejectsTotalMismatch) {
  const std::string path = Path("budget.ledger");
  { ASSERT_TRUE(BudgetLedger::Open(path, 1.0).ok()); }
  auto reopened = BudgetLedger::Open(path, 2.0);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LedgerTest, RecoversFromTornFinalRecord) {
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "g", 0.3).ok());
    // The next append is torn mid-record by an injected fault (half the
    // bytes, no newline) — a crash during write.
    fault::ScopedFaultInjection scope(
        "ledger.append", fault::FaultSpec{.kind = fault::FaultKind::kShortRead});
    EXPECT_FALSE(ledger->AppendIntent(1, "g", 0.3).ok());
  }
  auto reopened = BudgetLedger::Open(path, 1.0);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->recovered_torn_tail());
  ASSERT_EQ(reopened->entries().size(), 1u);
  EXPECT_EQ(reopened->entries()[0].seq, 0);

  // The truncated tail leaves a clean boundary: appends work again and a
  // third open sees a healthy file.
  ASSERT_TRUE(reopened->AppendIntent(1, "g", 0.3).ok());
  auto third = BudgetLedger::Open(path, 1.0);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->recovered_torn_tail());
  EXPECT_EQ(third->entries().size(), 2u);
}

TEST_F(LedgerTest, MidFileCorruptionIsAnError) {
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "g", 0.3).ok());
  }
  {
    // Flip bytes in the middle of the file (the total record), then append
    // a valid-looking line so the damage is not on the final line.
    std::ofstream out(path, std::ios::app);
    out << "garbage that is not a ledger record\n";
    out << "more trailing garbage\n";
  }
  auto reopened = BudgetLedger::Open(path, 1.0);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kParseError);
}

TEST_F(LedgerTest, AppendFaultFailsCleanly) {
  const std::string path = Path("budget.ledger");
  auto ledger = BudgetLedger::Open(path, 1.0);
  ASSERT_TRUE(ledger.ok());
  fault::ScopedFaultInjection scope(
      "ledger.append", fault::FaultSpec{.kind = fault::FaultKind::kIoError});
  Status s = ledger->AppendIntent(0, "g", 0.1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // A failed append journals nothing.
  EXPECT_FALSE(ledger->HasIntent(0));
}

// ------------------------------------------------------- independent audit
//
// AuditLedgerReplay re-derives the spend from raw bytes — it must agree
// with a healthy BudgetLedger, flag every invariant break the ledger
// class itself cannot see (it happily appends what it is told), and never
// mutate the file it audits.

TEST_F(LedgerTest, AuditAgreesWithACleanLedger) {
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "snapshots", 0.25).ok());
    ASSERT_TRUE(ledger->AppendCommit(0).ok());
    ASSERT_TRUE(ledger->AppendIntent(1, "snapshots", 0.25).ok());
    ASSERT_TRUE(ledger->AppendCommit(1).ok());
    ASSERT_TRUE(ledger->AppendIntent(2, "snapshots", 0.25).ok());
    // seq 2 is paid but never released: legal crash fallout, not a
    // violation.
  }
  auto report = AuditLedgerReplay(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_EQ(report->total_epsilon, 1.0);
  EXPECT_NEAR(report->epsilon_spent, 0.75, 1e-15);
  EXPECT_EQ(report->intents, 3);
  EXPECT_EQ(report->commits, 2);
  EXPECT_EQ(report->uncommitted, 1);
  EXPECT_FALSE(report->recovered_torn_tail);
  EXPECT_NE(report->ToString().find(" OK"), std::string::npos);
}

TEST_F(LedgerTest, AuditFlagsDuplicateAndNonAdvancingIntents) {
  // BudgetLedger does not police seq discipline — a buggy caller can
  // journal the same (group, seq) twice, and replay would then charge it
  // twice. Only the auditor catches this.
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(3, "g", 0.1).ok());
    ASSERT_TRUE(ledger->AppendIntent(3, "g", 0.1).ok());  // duplicate
    ASSERT_TRUE(ledger->AppendIntent(1, "g", 0.1).ok());  // goes backwards
  }
  auto report = AuditLedgerReplay(path);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->violations.size(), 2u) << report->ToString();
  EXPECT_NE(report->violations[0].find("duplicate intent"),
            std::string::npos);
  EXPECT_NE(report->violations[1].find("does not advance"),
            std::string::npos);
  EXPECT_NE(report->ToString().find("VIOLATION"), std::string::npos);
}

TEST_F(LedgerTest, AuditFlagsOverdraft) {
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "g", 0.6).ok());
    ASSERT_TRUE(ledger->AppendIntent(1, "g", 0.6).ok());
  }
  auto report = AuditLedgerReplay(path);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->epsilon_spent, 1.2, 1e-15);
  ASSERT_EQ(report->violations.size(), 1u) << report->ToString();
  EXPECT_NE(report->violations[0].find("exceeds ledger total"),
            std::string::npos);
}

TEST_F(LedgerTest, AuditFlagsOrphanAndDuplicateCommits) {
  // The commit checksum covers only "commit <seq>", so a commit line
  // spliced in from another ledger verifies fine — structurally valid,
  // semantically an orphan. BudgetLedger::Open refuses to load such a
  // file; the auditor must instead report it as the violation it is.
  const std::string victim = Path("victim.ledger");
  const std::string donor = Path("donor.ledger");
  {
    auto ledger = BudgetLedger::Open(victim, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "g", 0.1).ok());
    ASSERT_TRUE(ledger->AppendCommit(0).ok());
    ASSERT_TRUE(ledger->AppendCommit(0).ok());  // duplicate commit
  }
  {
    auto ledger = BudgetLedger::Open(donor, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(5, "g", 0.1).ok());
    ASSERT_TRUE(ledger->AppendCommit(5).ok());
  }
  std::string spliced;
  {
    std::ifstream in(donor);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("commit 5 ", 0) == 0) spliced = line;
    }
  }
  ASSERT_FALSE(spliced.empty());
  {
    std::ofstream out(victim, std::ios::app);
    out << spliced << '\n';
  }

  auto report = AuditLedgerReplay(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->violations.size(), 2u) << report->ToString();
  EXPECT_NE(report->violations[0].find("duplicate commit"),
            std::string::npos);
  EXPECT_NE(report->violations[1].find("commit without intent for seq 5"),
            std::string::npos);
}

TEST_F(LedgerTest, AuditReportsTornTailWithoutRepairingIt) {
  const std::string path = Path("budget.ledger");
  {
    auto ledger = BudgetLedger::Open(path, 1.0);
    ASSERT_TRUE(ledger.ok());
    ASSERT_TRUE(ledger->AppendIntent(0, "g", 0.3).ok());
    fault::ScopedFaultInjection scope(
        "ledger.append", fault::FaultSpec{.kind = fault::FaultKind::kShortRead});
    EXPECT_FALSE(ledger->AppendIntent(1, "g", 0.3).ok());
  }
  const auto bytes_before = fs::file_size(path);

  auto report = AuditLedgerReplay(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->recovered_torn_tail);
  EXPECT_TRUE(report->ok()) << report->ToString();  // torn tail is legal
  EXPECT_EQ(report->intents, 1);
  EXPECT_NE(report->ToString().find("torn-tail"), std::string::npos);
  // Read-only: the torn bytes are still there after the audit...
  EXPECT_EQ(fs::file_size(path), bytes_before);

  // ...and it is BudgetLedger::Open that actually repairs them.
  ASSERT_TRUE(BudgetLedger::Open(path, 1.0).ok());
  EXPECT_LT(fs::file_size(path), bytes_before);
  auto clean = AuditLedgerReplay(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->recovered_torn_tail);
}

TEST_F(LedgerTest, EntryComparesAllFields) {
  const BudgetLedger::Entry a{1, "g", 0.5, true};
  EXPECT_EQ(a, (BudgetLedger::Entry{1, "g", 0.5, true}));
  EXPECT_NE(a, (BudgetLedger::Entry{2, "g", 0.5, true}));
  EXPECT_NE(a, (BudgetLedger::Entry{1, "h", 0.5, true}));
  EXPECT_NE(a, (BudgetLedger::Entry{1, "g", 0.25, true}));
  EXPECT_NE(a, (BudgetLedger::Entry{1, "g", 0.5, false}));
}

// ------------------------------------------------ crash/resume end-to-end

class CrashResumeTest : public LedgerTest {
 protected:
  void SetUp() override {
    LedgerTest::SetUp();
    dataset_ = data::MakeTinyDataset(120, 90, 33);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    users_ = {0, 3, 7, 11};
  }

  core::DynamicRecommenderOptions Options(const std::string& ledger) {
    core::DynamicRecommenderOptions opt;
    opt.total_epsilon = 0.8;
    opt.planned_snapshots = 4;
    opt.louvain.restarts = 1;
    opt.seed = 77;
    opt.ledger_path = ledger;
    return opt;
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  core::RecommenderContext context_;
  std::vector<graph::NodeId> users_;
};

// Recommendation compares with ==, so list equality here is bit-exact on
// both items and utilities.
bool SameLists(const std::vector<core::RecommendationList>& a,
               const std::vector<core::RecommendationList>& b) {
  return a == b;
}

TEST_F(CrashResumeTest, ResumedSessionMatchesUninterruptedRunExactly) {
  // Reference: an uninterrupted 4-snapshot run.
  std::vector<std::vector<core::RecommendationList>> reference;
  double reference_cumulative = 0.0;
  {
    auto session = core::DynamicRecommenderSession::Open(
        Options(Path("uninterrupted.ledger")));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int t = 0; t < 4; ++t) {
      auto release = session->ProcessSnapshot(context_, users_, 5);
      ASSERT_TRUE(release.ok()) << release.status().ToString();
      reference.push_back(release->lists);
    }
    reference_cumulative = session->epsilon_spent();
  }

  // Crashing run: two clean snapshots, then a kill injected AFTER the
  // intent for snapshot 2 is journaled but BEFORE its release goes out.
  const std::string ledger = Path("crashed.ledger");
  {
    auto session = core::DynamicRecommenderSession::Open(Options(ledger));
    ASSERT_TRUE(session.ok());
    for (int t = 0; t < 2; ++t) {
      auto release = session->ProcessSnapshot(context_, users_, 5);
      ASSERT_TRUE(release.ok());
      EXPECT_TRUE(SameLists(release->lists, reference[t]));
    }
    fault::ScopedFaultInjection scope(
        "dynamic.after_journal",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    auto crashed = session->ProcessSnapshot(context_, users_, 5);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
    // The ε is journaled and charged even though nothing was released.
    EXPECT_TRUE(session->ledger()->HasIntent(2));
    EXPECT_FALSE(session->ledger()->IsCommitted(2));
    EXPECT_NEAR(session->epsilon_spent(), 0.6, 1e-12);
  }  // session destroyed: the "crash"

  // Restart from the ledger. The paid-but-unreleased snapshot 2 must be
  // re-derived from the same deterministic noise stream — NOT re-charged,
  // NOT re-randomized — and the session must finish its planned sequence.
  auto resumed = core::DynamicRecommenderSession::Open(Options(ledger));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->snapshots_processed(), 2);
  EXPECT_NEAR(resumed->epsilon_spent(), 0.6, 1e-12);  // intent replayed

  auto redo = resumed->ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(redo.ok()) << redo.status().ToString();
  EXPECT_TRUE(redo->resumed_from_intent);
  EXPECT_DOUBLE_EQ(redo->epsilon_spent, 0.0);  // already paid
  EXPECT_TRUE(SameLists(redo->lists, reference[2]));

  auto last = resumed->ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last->resumed_from_intent);
  EXPECT_TRUE(SameLists(last->lists, reference[3]));

  // Identical terminal state: cumulative ε matches the uninterrupted run
  // and the budget admits no fifth release.
  EXPECT_NEAR(resumed->epsilon_spent(), reference_cumulative, 1e-12);
  auto fifth = resumed->ProcessSnapshot(context_, users_, 5);
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
}

// A failed fsync leaves the intent in the file without proof that it is
// durable. The session reports the error without charging ε, and the
// ledger closes, so a retry on the same session cannot journal a second
// intent for the snapshot. A reopened session replays the one intent and
// re-derives the release from it.
TEST_F(CrashResumeTest, FailedIntentSyncClosesLedgerAndResumesOnce) {
  std::vector<core::RecommendationList> reference;
  {
    auto session = core::DynamicRecommenderSession::Open(
        Options(Path("reference.ledger")));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto release = session->ProcessSnapshot(context_, users_, 5);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    reference = release->lists;
  }

  const std::string ledger = Path("sync.ledger");
  {
    auto session = core::DynamicRecommenderSession::Open(Options(ledger));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    {
      fault::ScopedFaultInjection scope(
          "ledger.sync", fault::FaultSpec{.kind = fault::FaultKind::kIoError});
      auto failed = session->ProcessSnapshot(context_, users_, 5);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
      EXPECT_EQ(fault::FaultInjector::Instance().HitCount("ledger.sync"), 1);
    }
    EXPECT_EQ(session->epsilon_spent(), 0.0);
    EXPECT_FALSE(session->ledger()->HasIntent(0));

    auto retry = session->ProcessSnapshot(context_, users_, 5);
    ASSERT_FALSE(retry.ok());
    EXPECT_EQ(retry.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(session->epsilon_spent(), 0.0);
  }

  auto resumed = core::DynamicRecommenderSession::Open(Options(ledger));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->snapshots_processed(), 0);
  EXPECT_NEAR(resumed->epsilon_spent(), 0.2, 1e-12);  // the intent is paid
  auto redo = resumed->ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(redo.ok()) << redo.status().ToString();
  EXPECT_TRUE(redo->resumed_from_intent);
  EXPECT_DOUBLE_EQ(redo->epsilon_spent, 0.0);
  EXPECT_TRUE(SameLists(redo->lists, reference));
  EXPECT_NEAR(resumed->epsilon_spent(), 0.2, 1e-12);

  auto audit = AuditLedgerReplay(ledger);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit->ok()) << audit->ToString();
  EXPECT_EQ(audit->intents, 1);
  EXPECT_EQ(audit->commits, 1);
  EXPECT_EQ(audit->uncommitted, 0);
}

TEST_F(CrashResumeTest, RestartWithoutCrashResumesAfterLastCommit) {
  const std::string ledger = Path("clean.ledger");
  {
    auto session = core::DynamicRecommenderSession::Open(Options(ledger));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->ProcessSnapshot(context_, users_, 5).ok());
    ASSERT_TRUE(session->ProcessSnapshot(context_, users_, 5).ok());
  }
  auto resumed = core::DynamicRecommenderSession::Open(Options(ledger));
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->snapshots_processed(), 2);
  EXPECT_NEAR(resumed->epsilon_spent(), 0.4, 1e-12);
  auto release = resumed->ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(release.ok());
  EXPECT_FALSE(release->resumed_from_intent);
  EXPECT_EQ(release->snapshot_index, 2);
}

TEST_F(CrashResumeTest, StaleReplayOnExhaustion) {
  core::DynamicRecommenderOptions opt = Options("");
  opt.planned_snapshots = 2;
  opt.serve_stale_on_exhaustion = true;
  core::DynamicRecommenderSession session(opt);
  auto first = session.ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(first.ok());
  auto second = session.ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(second.ok());
  // Budget exhausted: the third call replays the second release, flagged
  // per user, at zero additional ε.
  auto stale = session.ProcessSnapshot(context_, users_, 5);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->stale);
  EXPECT_DOUBLE_EQ(stale->epsilon_spent, 0.0);
  EXPECT_TRUE(SameLists(stale->lists, second->lists));
  ASSERT_EQ(stale->degradation.size(), users_.size());
  for (const core::DegradationInfo& info : stale->degradation) {
    EXPECT_EQ(info.reason, core::DegradationReason::kStaleReplay);
  }
  EXPECT_NEAR(session.epsilon_spent(), opt.total_epsilon, 1e-9);
}

}  // namespace
}  // namespace privrec::dp
