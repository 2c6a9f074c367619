// Differential-privacy primitives (Section 3).
//
// LaplaceMechanism implements Theorem 1: adding Lap(Δ/ε) noise to each
// coordinate of a Δ-sensitive query makes it ε-differentially private.
// Epsilon may be infinity, in which case no noise is added (the paper's
// ε = ∞ configurations, used to isolate approximation error).

#ifndef PRIVREC_DP_MECHANISMS_H_
#define PRIVREC_DP_MECHANISMS_H_

#include <limits>

#include "common/random.h"

namespace privrec::dp {

// The distinguished "no privacy" setting.
inline constexpr double kEpsilonInfinity =
    std::numeric_limits<double>::infinity();

// True for valid privacy parameters: ε > 0 (finite) or ε = ∞.
bool IsValidEpsilon(double epsilon);

class LaplaceMechanism {
 public:
  // `epsilon` must satisfy IsValidEpsilon. The rng is owned by the caller
  // conceptually but copied in; fork a dedicated stream per mechanism.
  LaplaceMechanism(double epsilon, Rng rng);

  double epsilon() const { return epsilon_; }

  // Releases value + Lap(sensitivity / ε). Requires sensitivity > 0 unless
  // ε = ∞ (where it is ignored).
  double Release(double value, double sensitivity);

 private:
  double epsilon_;
  Rng rng_;
};

}  // namespace privrec::dp

#endif  // PRIVREC_DP_MECHANISMS_H_
