#include "common/random.h"

#include <cmath>
#include <unordered_set>

namespace privrec {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  // Expand the 64-bit seed into 256 bits of state; splitmix64 guarantees the
  // state is never all-zero for distinct outputs.
  uint64_t x = seed;
  for (auto& s : s_) {
    x = SplitMix64(x);
    s = x;
  }
  // Defensive: xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ull;
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Mix the current state with the stream id to derive a decorrelated child.
  uint64_t h = s_[0] ^ Rotl(s_[2], 17);
  return Rng(SplitMix64(h ^ SplitMix64(stream_id)));
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t n) {
  PRIVREC_DCHECK(n > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PRIVREC_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Normal(double mean, double stddev) {
  // Marsaglia polar method; one of the pair is discarded to keep the
  // generator stateless with respect to call parity.
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
}

double Rng::Exponential(double lambda) {
  PRIVREC_DCHECK(lambda > 0);
  // -log(1 - U) avoids log(0) because UniformDouble() < 1.
  return -std::log1p(-UniformDouble()) / lambda;
}

double Rng::Laplace(double scale) {
  PRIVREC_DCHECK(scale > 0);
  // Inverse CDF on a symmetric uniform: u in (-1/2, 1/2].
  double u = UniformDouble() - 0.5;
  // sign(u) * log(1 - 2|u|) with the u == 0.5 boundary handled by log1p.
  double sign = (u < 0) ? -1.0 : 1.0;
  return -scale * sign * std::log1p(-2.0 * std::fabs(u));
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  PRIVREC_DCHECK(n > 0);
  if (n == 1) return 0;
  if (s <= 0.0) return UniformInt(n);
  // Rejection-inversion for H(x) = integral of x^-s (s != 1) or log (s == 1),
  // over ranks 1..n; returned value is rank-1 (0-based).
  const double e = 1.0 - s;
  auto h_integral = [&](double x) -> double {
    // Integral of t^-s from 1 to x (plus constant).
    if (std::fabs(e) < 1e-12) return std::log(x);
    return (std::pow(x, e) - 1.0) / e;
  };
  auto h_integral_inv = [&](double y) -> double {
    if (std::fabs(e) < 1e-12) return std::exp(y);
    return std::pow(1.0 + y * e, 1.0 / e);
  };
  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_n = h_integral(static_cast<double>(n) + 0.5);
  for (;;) {
    double u = h_x1 + UniformDouble() * (h_n - h_x1);
    double x = h_integral_inv(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    double k_d = static_cast<double>(k);
    // Acceptance test.
    if (u >= h_integral(k_d + 0.5) - std::pow(k_d, -s) || k == 1) {
      return k - 1;
    }
  }
}

std::vector<uint64_t> Rng::SampleWithoutReplacement(uint64_t n, uint64_t k) {
  PRIVREC_CHECK(k <= n);
  // Floyd's algorithm: O(k) expected time, O(k) space.
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> out;
  out.reserve(k);
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = UniformInt(j + 1);
    if (seen.insert(t).second) {
      out.push_back(t);
    } else {
      seen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace privrec
