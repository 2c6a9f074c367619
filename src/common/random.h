// Deterministic random number generation for privrec.
//
// All randomized components in the library (graph generators, Louvain node
// orderings, DP mechanisms, experiment trials) draw from an explicitly
// seeded Rng so that every run is reproducible bit-for-bit. The engine is
// xoshiro256++ seeded through splitmix64, which is fast, has a 256-bit
// state, and passes BigCrush.
//
// Distribution helpers include the sampler the paper's mechanism needs,
// Laplace (Theorem 1), and the ones the generators and the load harness
// draw from (normal, exponential, Zipf).

#ifndef PRIVREC_COMMON_RANDOM_H_
#define PRIVREC_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace privrec {

// Stateless 64-bit mixer; used for seeding and for deriving independent
// per-entity substreams (e.g. one stream per trial).
uint64_t SplitMix64(uint64_t x);

// xoshiro256++ engine with distribution helpers. Copyable (cheap, 32-byte
// state); copies evolve independently.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Derives an independent generator for substream `stream_id`; used to give
  // each trial/user/item its own reproducible stream.
  Rng Fork(uint64_t stream_id) const;

  // UniformRandomBitGenerator interface (usable with <random> and
  // std::shuffle).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ull; }
  uint64_t operator()() { return Next(); }

  uint64_t Next();

  // Uniform in [0, n). Requires n > 0. Uses Lemire's multiply-shift with
  // rejection for exact uniformity.
  uint64_t UniformInt(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Standard normal via Marsaglia polar method.
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Exponential with rate lambda > 0 (mean 1/lambda).
  double Exponential(double lambda);

  // Laplace(0, scale): density (1/2b) exp(-|x|/b). This is the noise
  // distribution of Theorem 1; variance is 2*scale^2.
  double Laplace(double scale);

  // Zipf-distributed integer in [0, n) with exponent s >= 0 (s = 0 is
  // uniform). Uses rejection-inversion (Hörmann & Derflinger), O(1) per
  // sample after O(1) setup per call signature.
  uint64_t Zipf(uint64_t n, double s);

  // Fisher-Yates shuffle of v.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Samples k distinct indices from [0, n) uniformly (Floyd's algorithm).
  // Requires k <= n. Result is unsorted.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k);

 private:
  uint64_t s_[4];
};

}  // namespace privrec

#endif  // PRIVREC_COMMON_RANDOM_H_
