#include "la/dense_matrix.h"

#include <cmath>

namespace privrec::la {

DenseMatrix DenseMatrix::Multiply(const DenseMatrix& other) const {
  PRIVREC_CHECK(cols_ == other.rows());
  DenseMatrix out(rows_, other.cols());
  // i-k-j loop order keeps the inner loop contiguous in both inputs.
  for (int64_t i = 0; i < rows_; ++i) {
    const double* a_row = RowPtr(i);
    double* o_row = out.RowPtr(i);
    for (int64_t k = 0; k < cols_; ++k) {
      double a = a_row[k];
      if (a == 0.0) continue;
      const double* b_row = other.RowPtr(k);
      for (int64_t j = 0; j < other.cols(); ++j) {
        o_row[j] += a * b_row[j];
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::TransposeMultiply(const DenseMatrix& other) const {
  PRIVREC_CHECK(rows_ == other.rows());
  DenseMatrix out(cols_, other.cols());
  for (int64_t k = 0; k < rows_; ++k) {
    const double* a_row = RowPtr(k);
    const double* b_row = other.RowPtr(k);
    for (int64_t i = 0; i < cols_; ++i) {
      double a = a_row[i];
      if (a == 0.0) continue;
      double* o_row = out.RowPtr(i);
      for (int64_t j = 0; j < other.cols(); ++j) {
        o_row[j] += a * b_row[j];
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

double DenseMatrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double DenseMatrix::MaxColumnL1Norm() const {
  std::vector<double> col_sums(static_cast<size_t>(cols_), 0.0);
  for (int64_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (int64_t j = 0; j < cols_; ++j) {
      col_sums[static_cast<size_t>(j)] += std::fabs(row[j]);
    }
  }
  double best = 0.0;
  for (double s : col_sums) best = std::max(best, s);
  return best;
}

DenseMatrix HouseholderQ(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  PRIVREC_CHECK(m >= n);
  // Work on a copy; accumulate the reflectors, then form Q by applying them
  // to the first n columns of the identity.
  DenseMatrix r = a;
  std::vector<std::vector<double>> reflectors;
  reflectors.reserve(static_cast<size_t>(n));

  for (int64_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (int64_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    std::vector<double> v(static_cast<size_t>(m - k), 0.0);
    if (norm > 0.0) {
      double alpha = (r(k, k) >= 0.0) ? -norm : norm;
      for (int64_t i = k; i < m; ++i) v[static_cast<size_t>(i - k)] = r(i, k);
      v[0] -= alpha;
      double vnorm = 0.0;
      for (double x : v) vnorm += x * x;
      vnorm = std::sqrt(vnorm);
      if (vnorm > 1e-300) {
        for (double& x : v) x /= vnorm;
        // Apply I - 2vv^T to the trailing submatrix of r.
        for (int64_t j = k; j < n; ++j) {
          double dot = 0.0;
          for (int64_t i = k; i < m; ++i) {
            dot += v[static_cast<size_t>(i - k)] * r(i, j);
          }
          for (int64_t i = k; i < m; ++i) {
            r(i, j) -= 2.0 * v[static_cast<size_t>(i - k)] * dot;
          }
        }
      } else {
        v.assign(v.size(), 0.0);
      }
    }
    reflectors.push_back(std::move(v));
  }

  // Q = H_0 H_1 ... H_{n-1} * I_{m x n}; apply reflectors in reverse.
  DenseMatrix q(m, n);
  for (int64_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (int64_t k = n - 1; k >= 0; --k) {
    const std::vector<double>& v = reflectors[static_cast<size_t>(k)];
    for (int64_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (int64_t i = k; i < m; ++i) {
        dot += v[static_cast<size_t>(i - k)] * q(i, j);
      }
      if (dot == 0.0) continue;
      for (int64_t i = k; i < m; ++i) {
        q(i, j) -= 2.0 * v[static_cast<size_t>(i - k)] * dot;
      }
    }
  }
  return q;
}

}  // namespace privrec::la
