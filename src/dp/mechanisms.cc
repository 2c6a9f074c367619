#include "dp/mechanisms.h"

#include <cmath>

#include "common/macros.h"

namespace privrec::dp {

bool IsValidEpsilon(double epsilon) {
  return epsilon == kEpsilonInfinity || (epsilon > 0.0 && std::isfinite(epsilon));
}

LaplaceMechanism::LaplaceMechanism(double epsilon, Rng rng)
    : epsilon_(epsilon), rng_(rng) {
  PRIVREC_CHECK_MSG(IsValidEpsilon(epsilon), "epsilon must be > 0 or inf");
}

double LaplaceMechanism::Release(double value, double sensitivity) {
  if (epsilon_ == kEpsilonInfinity) return value;
  PRIVREC_CHECK(sensitivity > 0.0);
  return value + rng_.Laplace(sensitivity / epsilon_);
}

}  // namespace privrec::dp
