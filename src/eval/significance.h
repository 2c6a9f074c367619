// Statistical significance helper for mechanism comparisons: Welch's
// unequal-variance t-test.
// Used by the benches to say "A beats B" with error bars instead of bare
// means (the paper reports means of 10 trials; these make the trial
// variance explicit).

#ifndef PRIVREC_EVAL_SIGNIFICANCE_H_
#define PRIVREC_EVAL_SIGNIFICANCE_H_

#include <vector>

namespace privrec::eval {

struct WelchResult {
  double t_statistic = 0.0;
  // Welch-Satterthwaite degrees of freedom.
  double degrees_of_freedom = 0.0;
  // Two-sided p-value (normal approximation for df > 30, otherwise a
  // t-distribution tail via the incomplete beta function).
  double p_value = 1.0;
  double mean_difference = 0.0;  // mean(a) - mean(b)
};

// Requires at least two samples per side.
WelchResult WelchTTest(const std::vector<double>& a,
                       const std::vector<double>& b);

// Student-t two-sided tail probability P(|T_df| >= |t|). Exposed for
// tests; exact via the regularized incomplete beta function.
double StudentTTwoSidedPValue(double t, double df);

}  // namespace privrec::eval

#endif  // PRIVREC_EVAL_SIGNIFICANCE_H_
