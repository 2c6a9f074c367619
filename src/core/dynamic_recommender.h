// Dynamic-graph extension (the paper's first future-work item).
//
// The paper computes recommendations over a single static snapshot and
// notes that "enforcing differential privacy over dynamic graphs is a
// non-trivial extension". This module provides the natural baseline for
// that extension: a session that releases recommendations over a sequence
// of graph snapshots under ONE total privacy budget, paying for each
// release by sequential composition (Theorem 2 — the same preference edge
// can appear in every snapshot, so the per-snapshot epsilons add).
//
// Two allocation policies:
//   kUniform    ε_t = ε_total / planned_snapshots; exactly
//               planned_snapshots releases are possible.
//   kGeometric  ε_t = ε_total · (1 - γ) · γ^t; the series sums below
//               ε_total, so the session never exhausts — each release is
//               noisier than the last, an explicit freshness/privacy
//               trade-off.
//
// Each snapshot re-clusters the (public) social graph with Louvain and
// runs Algorithm 1 at the allocated ε_t. The session refuses to release
// once the accountant would be overdrawn (RESOURCE_EXHAUSTED), or — with
// serve_stale_on_exhaustion — replays the last paid release, flagged
// kStaleReplay, at zero additional ε.
//
// Crash safety: with a ledger_path configured, every charge is journaled
// to a BudgetLedger BEFORE noise is sampled (write-ahead) and committed
// after the release. Open() replays the journal, so a restarted session
// resumes at the correct cumulative ε. A crash between intent and commit
// leaves a paid-but-unreleased snapshot; because snapshot t's noise is a
// deterministic function of (seed, t), the resumed session re-derives the
// IDENTICAL release without re-charging — re-releasing the same output is
// free under DP, re-randomizing would be a silent double-spend.
// Fault point: dynamic.after_journal (kIoError simulates a crash after
// the intent is journaled but before the release goes out).

#ifndef PRIVREC_CORE_DYNAMIC_RECOMMENDER_H_
#define PRIVREC_CORE_DYNAMIC_RECOMMENDER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "community/louvain.h"
#include "core/degradation.h"
#include "core/recommender.h"
#include "dp/budget.h"
#include "dp/ledger.h"

namespace privrec::core {

enum class BudgetAllocation {
  kUniform,
  kGeometric,
};

struct DynamicRecommenderOptions {
  double total_epsilon = 1.0;
  BudgetAllocation allocation = BudgetAllocation::kUniform;
  // kUniform: the number of snapshot releases the budget is divided over.
  int64_t planned_snapshots = 10;
  // kGeometric: the decay ratio γ in (0, 1).
  double geometric_ratio = 0.7;
  community::LouvainOptions louvain;
  uint64_t seed = 600;
  // Non-empty: journal charges to this write-ahead ledger (see Open()).
  std::string ledger_path;
  // On budget exhaustion, replay the last paid release (flagged
  // kStaleReplay) instead of failing with RESOURCE_EXHAUSTED.
  bool serve_stale_on_exhaustion = false;
  // Each snapshot builds a model and serves its release. Empty: the model
  // stays in RAM (ServingEngine::FromModel). Non-empty: it goes through
  // the two-phase pipeline — saved as SnapshotArtifactPath(artifact_dir,
  // t), loaded back and served from the artifact, with bit-identical
  // lists. The saved artifacts are the session's audit trail: each
  // records its ε_t, seed, and ledger id in its provenance.
  std::string artifact_dir;
};

// Where a session with `artifact_dir` saves snapshot t's artifact:
// <artifact_dir>/snapshot_<t>.pvram.
std::string SnapshotArtifactPath(const std::string& artifact_dir, int64_t t);

struct SnapshotRelease {
  std::vector<RecommendationList> lists;
  // Per-user degradation diagnostics and the batch report from the
  // underlying recommender (see core/degradation.h).
  std::vector<DegradationInfo> degradation;
  ServingReport report;
  // The ε charged for this release and the cumulative total so far.
  double epsilon_spent = 0.0;
  double cumulative_epsilon = 0.0;
  int64_t snapshot_index = 0;
  int64_t num_clusters = 0;
  // This release re-issued a journaled-but-uncommitted intent found at
  // startup (crash recovery) — paid for by a previous run, not this call.
  bool resumed_from_intent = false;
  // This release is a replay of the last paid snapshot (budget exhausted,
  // serve_stale_on_exhaustion set).
  bool stale = false;
};

class DynamicRecommenderSession {
 public:
  // In-memory session (no ledger); ledger_path must be empty.
  explicit DynamicRecommenderSession(
      const DynamicRecommenderOptions& options);

  // Ledger-backed session: opens (or creates) options.ledger_path,
  // replays any journaled charges into the budget and resumes after the
  // last committed snapshot. With an empty ledger_path this is equivalent
  // to the constructor.
  static Result<DynamicRecommenderSession> Open(
      const DynamicRecommenderOptions& options);

  DynamicRecommenderSession(DynamicRecommenderSession&&) = default;
  DynamicRecommenderSession& operator=(DynamicRecommenderSession&&) =
      default;

  // Releases top-`top_n` lists for `users` from the given snapshot.
  // The context's graphs/workload represent the snapshot at this instant
  // and must stay alive only for the duration of the call. Fails with
  // RESOURCE_EXHAUSTED once the budget cannot cover the next allocation
  // (unless serve_stale_on_exhaustion is set and a paid release exists).
  //
  // `partition` non-null skips the per-snapshot Louvain run and clusters
  // with the caller's partition instead — the streaming pipeline passes
  // its incrementally-maintained clustering here. The caller must keep
  // the partition deterministic across crash recovery (a resumed intent
  // re-derives its release from it bit-for-bit).
  Result<SnapshotRelease> ProcessSnapshot(
      const RecommenderContext& context,
      const std::vector<graph::NodeId>& users, int64_t top_n,
      const community::Partition* partition = nullptr);

  // ε allocated to snapshot t (0-based) under the configured policy.
  double EpsilonForSnapshot(int64_t t) const;

  int64_t snapshots_processed() const { return snapshots_processed_; }
  double epsilon_spent() const { return budget_.GroupSpent(kGroup); }
  double epsilon_remaining() const { return budget_.Remaining(); }
  // Non-null for ledger-backed sessions.
  const dp::BudgetLedger* ledger() const {
    return ledger_ ? &*ledger_ : nullptr;
  }

 private:
  static constexpr const char* kGroup = "snapshots";

  DynamicRecommenderOptions options_;
  dp::PrivacyBudget budget_;
  int64_t snapshots_processed_ = 0;
  std::optional<dp::BudgetLedger> ledger_;
  // Last successful release, kept for stale replay on exhaustion.
  std::vector<RecommendationList> last_lists_;
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_DYNAMIC_RECOMMENDER_H_
