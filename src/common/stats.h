// Small statistics helpers used by experiments and tests: streaming
// mean/variance (Welford) and fixed-bin histograms.

#ifndef PRIVREC_COMMON_STATS_H_
#define PRIVREC_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace privrec {

// Streaming mean / variance / min / max accumulator (Welford's algorithm;
// numerically stable for long streams).
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width-bin histogram over [lo, hi); values outside are clamped into
// the first/last bin. Used by tests that check noise distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, int num_bins);

  void Add(double x);
  int64_t bin_count(int b) const { return counts_[b]; }
  int num_bins() const { return static_cast<int>(counts_.size()); }
  int64_t total() const { return total_; }
  // Fraction of mass in bin b; 0 if empty.
  double Fraction(int b) const;

 private:
  double lo_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace privrec

#endif  // PRIVREC_COMMON_STATS_H_
