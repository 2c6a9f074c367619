// Empirical differential-privacy auditing.
//
// AuditDpRatio implements the histogram density-ratio check used
// throughout this repo's privacy tests: sample a released value many
// times under two neighboring inputs, bin both samples, and verify the
// per-bin probability ratio stays within e^ε (with sampling slack).
// This cannot *prove* ε-DP — it is a falsifier: a mechanism whose ratio
// exceeds the bound on well-populated bins is broken.
//
// The clamped edge bins aggregate tail mass whose true ratio sits exactly
// at e^ε for Laplace-style mechanisms; they are never checked, because
// sampling noise there flags false positives.

#ifndef PRIVREC_DP_AUDIT_H_
#define PRIVREC_DP_AUDIT_H_

#include <cstdint>
#include <functional>
#include <string>

namespace privrec::dp {

struct AuditOptions {
  // Histogram range and resolution for the released value.
  double lo = -5.0;
  double hi = 5.0;
  int num_bins = 20;
  // Samples drawn from EACH world.
  int64_t samples = 50000;
  // Bins with fewer samples (in either world) are not checked.
  int64_t min_bin_count = 300;
  // Multiplicative slack on e^eps for sampling noise.
  double slack = 1.15;
};

struct AuditResult {
  // max over checked bins of max(r, 1/r) for ratio r = p1/p2.
  double worst_ratio = 1.0;
  // The pass threshold: e^eps * slack.
  double bound = 0.0;
  int bins_checked = 0;
  bool passed = false;

  std::string ToString() const;
};

// `sample_world1` / `sample_world2` draw one released value from the
// mechanism run on each of the two neighboring inputs (fresh noise per
// call). `epsilon` is the guarantee being audited.
AuditResult AuditDpRatio(const std::function<double()>& sample_world1,
                         const std::function<double()>& sample_world2,
                         double epsilon, const AuditOptions& options = {});

}  // namespace privrec::dp

#endif  // PRIVREC_DP_AUDIT_H_
