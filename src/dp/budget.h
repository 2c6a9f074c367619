// PrivacyBudget: an accountant that tracks ε consumption under the
// composition rules of Theorems 2 and 3.
//
// Charges are recorded against named disjointness groups:
//  - charges in the SAME group are assumed to touch the same records and
//    compose sequentially (epsilons add, Theorem 2);
//  - charges in DIFFERENT groups are assumed to touch disjoint records and
//    compose in parallel (max over groups, Theorem 3).
//
// This mirrors the structure of Algorithm 1's proof: each (item, cluster)
// pair reads a disjoint set of preference edges, so the whole of module A_w
// costs max — i.e. one — ε.

#ifndef PRIVREC_DP_BUDGET_H_
#define PRIVREC_DP_BUDGET_H_

#include <algorithm>
#include <map>
#include <string>

namespace privrec::dp {

class PrivacyBudget {
 public:
  // Accumulated floating-point drift tolerated when checking a charge
  // against the total, relative to the total: splitting ε_total uniformly
  // over N releases accumulates rounding on the order of N ulps, which must
  // not forfeit the final planned release. A 1e-9 relative slack is ~1e8
  // ulps of headroom while remaining far below any meaningful ε.
  static constexpr double kRelativeSlack = 1e-9;

  // `total_epsilon` is the guarantee the caller wants to be able to state.
  explicit PrivacyBudget(double total_epsilon);

  double total_epsilon() const { return total_epsilon_; }

  // Records an ε-charge against `group`. Returns false (and records
  // nothing) if the charge would push the spent budget past the total
  // (beyond kRelativeSlack).
  bool Charge(const std::string& group, double epsilon);

  // True iff Charge(group, epsilon) would succeed, without recording it.
  bool CanCharge(const std::string& group, double epsilon) const;

  // Restores a replayed ledger balance: overwrites the spend recorded for
  // `group` (no limit check beyond the slack — the ledger is the source of
  // truth for what was already paid; BudgetLedger::Open refuses a ledger
  // whose replay would pass limit()).
  void RestoreGroupSpent(const std::string& group, double epsilon);

  // Sequential total within one group.
  double GroupSpent(const std::string& group) const;

  // Overall spent ε = max over groups (parallel composition across groups).
  double Spent() const;

  // Never negative (a tolerated overshoot within the slack reads as 0).
  double Remaining() const {
    return std::max(0.0, total_epsilon_ - Spent());
  }

  bool Exhausted() const { return Remaining() <= 0.0; }

  // The recorded per-group spends, for serialization/inspection.
  const std::map<std::string, double>& group_spent() const {
    return per_group_;
  }

  // The most ε one group may hold: the total plus kRelativeSlack. Charge
  // never passes it, and RestoreGroupSpent requires a replay within it.
  double limit() const;

 private:
  double total_epsilon_;
  std::map<std::string, double> per_group_;
};

}  // namespace privrec::dp

#endif  // PRIVREC_DP_BUDGET_H_
