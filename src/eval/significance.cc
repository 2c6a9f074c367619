#include "eval/significance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/stats.h"

namespace privrec::eval {

namespace {

// Regularized incomplete beta function I_x(a, b) by the continued
// fraction of Numerical Recipes (Lentz's algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  const double kEps = 1e-12;
  const double kTiny = 1e-300;
  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    double m_d = static_cast<double>(m);
    double aa = m_d * (b - m_d) * x / ((qam + 2.0 * m_d) * (a + 2.0 * m_d));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m_d) * (qab + m_d) * x /
         ((a + 2.0 * m_d) * (qap + 2.0 * m_d));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                    a * std::log(x) + b * std::log1p(-x);
  double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double StudentTTwoSidedPValue(double t, double df) {
  PRIVREC_CHECK(df > 0.0);
  double x = df / (df + t * t);
  // P(|T| >= |t|) = I_x(df/2, 1/2).
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

WelchResult WelchTTest(const std::vector<double>& a,
                       const std::vector<double>& b) {
  PRIVREC_CHECK(a.size() >= 2 && b.size() >= 2);
  RunningStats sa;
  RunningStats sb;
  for (double x : a) sa.Add(x);
  for (double x : b) sb.Add(x);
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  // Sample (n-1) variances.
  double va = sa.variance() * na / (na - 1.0);
  double vb = sb.variance() * nb / (nb - 1.0);

  WelchResult result;
  result.mean_difference = sa.mean() - sb.mean();
  double se2 = va / na + vb / nb;
  if (se2 <= 0.0) {
    // Identical constant samples: difference is exact.
    result.t_statistic =
        result.mean_difference == 0.0
            ? 0.0
            : std::numeric_limits<double>::infinity();
    result.degrees_of_freedom = na + nb - 2.0;
    result.p_value = result.mean_difference == 0.0 ? 1.0 : 0.0;
    return result;
  }
  result.t_statistic = result.mean_difference / std::sqrt(se2);
  double num = se2 * se2;
  double den = (va / na) * (va / na) / (na - 1.0) +
               (vb / nb) * (vb / nb) / (nb - 1.0);
  result.degrees_of_freedom = num / den;
  result.p_value = StudentTTwoSidedPValue(result.t_statistic,
                                          result.degrees_of_freedom);
  return result;
}

}  // namespace privrec::eval
