// Dense row-major matrix with the operations needed by the low-rank
// mechanism: mat-mat / mat-vec products, transpose, Householder QR, and
// Frobenius norms. Not a general BLAS; sized for workloads of a few
// thousand rows.

#ifndef PRIVREC_LA_DENSE_MATRIX_H_
#define PRIVREC_LA_DENSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace privrec::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {
    PRIVREC_CHECK(rows >= 0 && cols >= 0);
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  double& operator()(int64_t r, int64_t c) {
    PRIVREC_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double operator()(int64_t r, int64_t c) const {
    PRIVREC_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  double* RowPtr(int64_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(int64_t r) const { return data_.data() + r * cols_; }

  // this * other. Requires cols() == other.rows().
  DenseMatrix Multiply(const DenseMatrix& other) const;

  // this^T * other. Requires rows() == other.rows().
  DenseMatrix TransposeMultiply(const DenseMatrix& other) const;

  DenseMatrix Transpose() const;

  double FrobeniusNorm() const;

  // Maximum column L1 norm: max_j sum_i |a_ij|. This is the sensitivity
  // measure used when Laplace noise is added to L * x with x varying by one
  // unit coordinate.
  double MaxColumnL1Norm() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

// Reduced QR factorization via Householder reflections: A (m x n, m >= n)
// = Q (m x n, orthonormal columns) * R (n x n upper triangular). Only Q is
// returned (all the randomized SVD needs).
DenseMatrix HouseholderQ(const DenseMatrix& a);

}  // namespace privrec::la

#endif  // PRIVREC_LA_DENSE_MATRIX_H_
