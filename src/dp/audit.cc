#include "dp/audit.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace privrec::dp {

std::string AuditResult::ToString() const {
  return std::string(passed ? "PASSED" : "FAILED") + ": worst ratio " +
         FormatDouble(worst_ratio, 3) + " vs bound " +
         FormatDouble(bound, 3) + " over " + std::to_string(bins_checked) +
         " bins";
}

AuditResult AuditDpRatio(const std::function<double()>& sample_world1,
                         const std::function<double()>& sample_world2,
                         double epsilon, const AuditOptions& options) {
  PRIVREC_CHECK(epsilon > 0.0);
  PRIVREC_CHECK(options.samples > 0);
  PRIVREC_CHECK(options.num_bins >= 3);
  Histogram h1(options.lo, options.hi, options.num_bins);
  Histogram h2(options.lo, options.hi, options.num_bins);
  for (int64_t s = 0; s < options.samples; ++s) {
    h1.Add(sample_world1());
    h2.Add(sample_world2());
  }

  AuditResult result;
  result.bound = std::exp(epsilon) * options.slack;
  // The first and last bins are clamped tails: never checked.
  for (int b = 1; b < options.num_bins - 1; ++b) {
    if (h1.bin_count(b) < options.min_bin_count ||
        h2.bin_count(b) < options.min_bin_count) {
      continue;
    }
    double ratio = h1.Fraction(b) / h2.Fraction(b);
    if (ratio < 1.0) ratio = 1.0 / ratio;
    result.worst_ratio = std::max(result.worst_ratio, ratio);
    ++result.bins_checked;
  }
  result.passed = result.worst_ratio <= result.bound;
  return result;
}

}  // namespace privrec::dp
