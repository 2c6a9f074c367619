// Truncated singular value decomposition via randomized range finding
// (Halko, Martinsson & Tropp 2011) with subspace power iterations, followed
// by a one-sided Jacobi SVD of the small projected matrix.
//
// Used by the Low-Rank Mechanism adaptation (Section 6.4 of the paper) to
// factor the similarity workload W ~= B * L.

#ifndef PRIVREC_LA_SVD_H_
#define PRIVREC_LA_SVD_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "la/dense_matrix.h"

namespace privrec::la {

struct SvdResult {
  DenseMatrix u;                        // m x r, orthonormal columns
  std::vector<double> singular_values;  // r, descending
  DenseMatrix vt;                       // r x n, orthonormal rows
};

struct SvdOptions {
  int64_t rank = 0;  // target rank r (required, > 0)
  uint64_t seed = 1;
};

// Computes a rank-`options.rank` approximation of `a`. The effective rank
// is min(rank, rows, cols). Deterministic given the seed.
SvdResult RandomizedSvd(const DenseMatrix& a, const SvdOptions& options);

// Exact one-sided Jacobi SVD for small dense matrices (used internally and
// directly by tests). O(m n^2) per sweep.
SvdResult JacobiSvd(const DenseMatrix& a);

}  // namespace privrec::la

#endif  // PRIVREC_LA_SVD_H_
