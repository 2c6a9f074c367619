#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace privrec {

void RunningStats::Add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    min_ = x;
    max_ = x;
    m2_ = 0.0;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo), width_((hi - lo) / num_bins), counts_(num_bins, 0) {
  PRIVREC_CHECK(hi > lo);
  PRIVREC_CHECK(num_bins > 0);
}

void Histogram::Add(double x) {
  int b = static_cast<int>((x - lo_) / width_);
  b = std::max(0, std::min(b, num_bins() - 1));
  ++counts_[b];
  ++total_;
}

double Histogram::Fraction(int b) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[b]) / static_cast<double>(total_);
}

}  // namespace privrec
