// Tests for the significance helpers (Welch's t-test, Student-t tails,
// bootstrap intervals).

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "eval/significance.h"

namespace privrec::eval {
namespace {

TEST(StudentTTest, KnownTailValues) {
  // P(|T_10| >= 2.228) = 0.05 (classic table value).
  EXPECT_NEAR(StudentTTwoSidedPValue(2.228, 10.0), 0.05, 0.002);
  // P(|T_1| >= 1.0) = 0.5 for the Cauchy (t with df=1).
  EXPECT_NEAR(StudentTTwoSidedPValue(1.0, 1.0), 0.5, 0.005);
  // Large df approaches the normal: P(|Z| >= 1.96) ~ 0.05.
  EXPECT_NEAR(StudentTTwoSidedPValue(1.96, 1000.0), 0.05, 0.003);
  EXPECT_NEAR(StudentTTwoSidedPValue(0.0, 5.0), 1.0, 1e-9);
}

TEST(WelchTTest, IdenticalSamplesAreInsignificant) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  WelchResult r = WelchTTest(a, a);
  EXPECT_NEAR(r.t_statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
  EXPECT_NEAR(r.mean_difference, 0.0, 1e-12);
}

TEST(WelchTTest, ClearlySeparatedSamplesAreSignificant) {
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(rng.Normal(10.0, 1.0));
    b.push_back(rng.Normal(0.0, 1.0));
  }
  WelchResult r = WelchTTest(a, b);
  EXPECT_GT(r.mean_difference, 8.0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(WelchTTest, SameDistributionUsuallyInsignificant) {
  Rng rng(2);
  int significant = 0;
  const int kRuns = 100;
  for (int run = 0; run < kRuns; ++run) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 15; ++i) {
      a.push_back(rng.Normal(0.0, 1.0));
      b.push_back(rng.Normal(0.0, 1.0));
    }
    if (WelchTTest(a, b).p_value < 0.05) ++significant;
  }
  // ~5% false positives expected; allow generous slack.
  EXPECT_LT(significant, 15);
}

TEST(WelchTTest, HandComputedStatistic) {
  // a: mean 2, sample var 1; b: mean 0, sample var 1; n = 3 each.
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {-1.0, 0.0, 1.0};
  WelchResult r = WelchTTest(a, b);
  // t = 2 / sqrt(1/3 + 1/3) = 2 / sqrt(2/3).
  EXPECT_NEAR(r.t_statistic, 2.0 / std::sqrt(2.0 / 3.0), 1e-9);
  EXPECT_NEAR(r.degrees_of_freedom, 4.0, 1e-9);
}

TEST(WelchTTest, ConstantSamplesEdgeCase) {
  std::vector<double> a = {5.0, 5.0, 5.0};
  std::vector<double> b = {5.0, 5.0};
  WelchResult same = WelchTTest(a, b);
  EXPECT_NEAR(same.p_value, 1.0, 1e-12);
  std::vector<double> c = {6.0, 6.0};
  WelchResult diff = WelchTTest(a, c);
  EXPECT_NEAR(diff.p_value, 0.0, 1e-12);
}

}  // namespace
}  // namespace privrec::eval
