// Tests for the DP primitives, including an empirical ε-DP ratio check of
// the Laplace mechanism and the composition accountant.

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "dp/audit.h"
#include "dp/budget.h"
#include "dp/mechanisms.h"

namespace privrec::dp {
namespace {

TEST(EpsilonTest, Validity) {
  EXPECT_TRUE(IsValidEpsilon(0.01));
  EXPECT_TRUE(IsValidEpsilon(1.0));
  EXPECT_TRUE(IsValidEpsilon(kEpsilonInfinity));
  EXPECT_FALSE(IsValidEpsilon(0.0));
  EXPECT_FALSE(IsValidEpsilon(-1.0));
  EXPECT_FALSE(IsValidEpsilon(std::nan("")));
}

TEST(LaplaceMechanismTest, InfinityAddsNoNoise) {
  LaplaceMechanism m(kEpsilonInfinity, Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(m.Release(3.25, 1.0), 3.25);
  }
}

TEST(LaplaceMechanismTest, NoiseVarianceMatchesTheory) {
  // Release of a constant with sensitivity Δ at ε has variance 2(Δ/ε)².
  const double eps = 0.5;
  const double sensitivity = 2.0;
  LaplaceMechanism m(eps, Rng(2));
  RunningStats stats;
  RunningStats abs_error;
  for (int i = 0; i < 200000; ++i) {
    const double x = m.Release(10.0, sensitivity);
    stats.Add(x);
    abs_error.Add(std::fabs(x - 10.0));
  }
  double b = sensitivity / eps;
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.variance(), 2.0 * b * b, 0.5);
  // The mean of |Lap(b)| is b.
  EXPECT_NEAR(abs_error.mean(), b, 0.05);
}

TEST(LaplaceMechanismTest, EmpiricalEpsilonDp) {
  // Histogram-ratio test: for neighboring values x and x' = x + Δ, the
  // densities of the released value must differ by at most e^ε everywhere.
  // We bin a large sample and check populated bins.
  const double eps = 1.0;
  const double sensitivity = 1.0;
  const int kSamples = 400000;
  Histogram h0(-6.0, 6.0, 24);
  Histogram h1(-6.0, 6.0, 24);
  LaplaceMechanism m0(eps, Rng(4));
  LaplaceMechanism m1(eps, Rng(5));
  for (int i = 0; i < kSamples; ++i) {
    h0.Add(m0.Release(0.0, sensitivity));
    h1.Add(m1.Release(1.0, sensitivity));
  }
  // Allow sampling slack on top of e^eps.
  const double bound = std::exp(eps) * 1.15;
  for (int b = 0; b < h0.num_bins(); ++b) {
    if (h0.bin_count(b) < 500 || h1.bin_count(b) < 500) continue;
    double ratio = h0.Fraction(b) / h1.Fraction(b);
    EXPECT_LT(ratio, bound) << "bin " << b;
    EXPECT_GT(ratio, 1.0 / bound) << "bin " << b;
  }
}

TEST(LaplaceMechanismTest, SmallerEpsilonMeansMoreNoise) {
  LaplaceMechanism strong(0.1, Rng(6));
  LaplaceMechanism weak(10.0, Rng(7));
  RunningStats s_strong;
  RunningStats s_weak;
  for (int i = 0; i < 50000; ++i) {
    s_strong.Add(std::fabs(strong.Release(0.0, 1.0)));
    s_weak.Add(std::fabs(weak.Release(0.0, 1.0)));
  }
  EXPECT_GT(s_strong.mean(), 10.0 * s_weak.mean());
}

// ----------------------------------------------------------------- Audit

TEST(DpAuditTest, CorrectLaplaceMechanismPasses) {
  const double eps = 0.7;
  LaplaceMechanism m1(eps, Rng(25));
  LaplaceMechanism m2(eps, Rng(26));
  AuditOptions opt;
  opt.lo = -4.0;
  opt.hi = 5.0;
  opt.samples = 60000;
  AuditResult result = AuditDpRatio([&] { return m1.Release(0.0, 1.0); },
                                    [&] { return m2.Release(1.0, 1.0); },
                                    eps, opt);
  EXPECT_TRUE(result.passed) << result.ToString();
  EXPECT_GT(result.bins_checked, 5);
}

TEST(DpAuditTest, UndernoisedMechanismFails) {
  // A mechanism claiming eps = 0.2 but adding eps = 2.0 noise violates
  // the claimed bound and must be caught.
  LaplaceMechanism m1(2.0, Rng(27));
  LaplaceMechanism m2(2.0, Rng(28));
  AuditOptions opt;
  opt.lo = -3.0;
  opt.hi = 4.0;
  opt.samples = 60000;
  AuditResult result = AuditDpRatio([&] { return m1.Release(0.0, 1.0); },
                                    [&] { return m2.Release(1.0, 1.0); },
                                    /*epsilon=*/0.2, opt);
  EXPECT_FALSE(result.passed) << result.ToString();
}

TEST(DpAuditTest, NoiselessMechanismFailsSpectacularly) {
  AuditOptions opt;
  opt.lo = -2.0;
  opt.hi = 3.0;
  opt.samples = 20000;
  opt.min_bin_count = 100;
  AuditResult result = AuditDpRatio([] { return 0.0; },
                                    [] { return 1.0; },
                                    /*epsilon=*/1.0, opt);
  // Disjoint supports: no bin is populated in both worlds, so nothing can
  // be checked — worst_ratio stays 1 but bins_checked reveals the gap.
  EXPECT_EQ(result.bins_checked, 0);
}

TEST(DpAuditTest, ClampedEdgeBinsAreNeverChecked) {
  // Both worlds put all their mass beyond [lo, hi): world 1 nine parts
  // below lo to one above hi, world 2 the reverse. Only the two clamped
  // edge bins are populated, with a ratio of 9 > e^1 * 1.15; they are
  // never checked, so no bin is and the audit passes.
  AuditOptions opt;
  opt.samples = 20000;
  int64_t draw1 = 0;
  int64_t draw2 = 0;
  AuditResult result = AuditDpRatio(
      [&] { return draw1++ % 10 == 0 ? opt.hi + 1.0 : opt.lo - 1.0; },
      [&] { return draw2++ % 10 == 0 ? opt.lo - 1.0 : opt.hi + 1.0; },
      /*epsilon=*/1.0, opt);
  EXPECT_EQ(result.bins_checked, 0);
  EXPECT_TRUE(result.passed) << result.ToString();
  EXPECT_DOUBLE_EQ(result.worst_ratio, 1.0);
}

TEST(DpAuditTest, ToStringMentionsVerdict) {
  LaplaceMechanism m1(1.0, Rng(29));
  LaplaceMechanism m2(1.0, Rng(30));
  AuditOptions opt;
  opt.samples = 20000;
  AuditResult result = AuditDpRatio([&] { return m1.Release(0.0, 1.0); },
                                    [&] { return m2.Release(1.0, 1.0); },
                                    1.0, opt);
  EXPECT_NE(result.ToString().find(result.passed ? "PASSED" : "FAILED"),
            std::string::npos);
}

// ---------------------------------------------------------------- Budget

TEST(PrivacyBudgetTest, SequentialCompositionWithinGroup) {
  PrivacyBudget budget(1.0);
  EXPECT_TRUE(budget.Charge("same_records", 0.4));
  EXPECT_TRUE(budget.Charge("same_records", 0.4));
  EXPECT_NEAR(budget.GroupSpent("same_records"), 0.8, 1e-12);
  EXPECT_FALSE(budget.Charge("same_records", 0.4));  // would exceed 1.0
  EXPECT_NEAR(budget.Spent(), 0.8, 1e-12);
}

TEST(PrivacyBudgetTest, ParallelCompositionAcrossGroups) {
  // Theorem 3: disjoint inputs cost the max, not the sum — the structure
  // of Algorithm 1's per-(item, cluster) averages.
  PrivacyBudget budget(0.5);
  for (int item = 0; item < 100; ++item) {
    EXPECT_TRUE(budget.Charge("item_" + std::to_string(item), 0.5));
  }
  EXPECT_NEAR(budget.Spent(), 0.5, 1e-12);
  EXPECT_FALSE(budget.Exhausted() && budget.Remaining() < -1e-9);
}

TEST(PrivacyBudgetTest, ExhaustionAndRemaining) {
  PrivacyBudget budget(0.3);
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Charge("g", 0.3));
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_NEAR(budget.Remaining(), 0.0, 1e-12);
  EXPECT_FALSE(budget.Charge("g", 0.1));
}

TEST(PrivacyBudgetTest, RejectedChargeLeavesStateUntouched) {
  PrivacyBudget budget(0.5);
  EXPECT_TRUE(budget.Charge("g", 0.3));
  EXPECT_FALSE(budget.Charge("g", 0.5));
  EXPECT_NEAR(budget.GroupSpent("g"), 0.3, 1e-12);
}

TEST(PrivacyBudgetTest, UniformSplitAllowsExactlyPlannedReleases) {
  // ε_total/N accumulated N times overshoots ε_total by a few ulps in
  // binary floating point; the accountant's relative slack must admit all
  // N planned releases (and no more). Regression for N = 7, ε = 0.1: 0.1
  // is not representable, so seven charges of 0.1/7 sum to slightly more
  // than 0.1.
  const int kPlanned = 7;
  const double kTotal = 0.1;
  PrivacyBudget budget(kTotal);
  const double slice = kTotal / kPlanned;
  for (int i = 0; i < kPlanned; ++i) {
    EXPECT_TRUE(budget.CanCharge("snapshots", slice)) << "release " << i;
    EXPECT_TRUE(budget.Charge("snapshots", slice)) << "release " << i;
  }
  EXPECT_FALSE(budget.CanCharge("snapshots", slice));
  EXPECT_FALSE(budget.Charge("snapshots", slice));
  EXPECT_NEAR(budget.Spent(), kTotal, 1e-9);
  // The slack is relative: it admits float accumulation error, not a real
  // overdraft.
  EXPECT_FALSE(budget.Charge("snapshots", kTotal * 1e-3));
}

TEST(PrivacyBudgetTest, RestoreGroupSpentReplaysBalance) {
  PrivacyBudget budget(1.0);
  budget.RestoreGroupSpent("snapshots", 0.6);
  EXPECT_NEAR(budget.GroupSpent("snapshots"), 0.6, 1e-12);
  EXPECT_NEAR(budget.Spent(), 0.6, 1e-12);
  EXPECT_TRUE(budget.Charge("snapshots", 0.4));
  EXPECT_FALSE(budget.Charge("snapshots", 0.1));
}

}  // namespace
}  // namespace privrec::dp
