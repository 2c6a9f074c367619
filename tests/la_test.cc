// Unit tests for src/la: dense matrices, Householder QR and the
// randomized/Jacobi SVDs used by the LRM baseline.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "la/dense_matrix.h"
#include "la/svd.h"

namespace privrec::la {
namespace {

DenseMatrix MakeMatrix(int64_t rows, int64_t cols,
                       std::vector<double> values) {
  DenseMatrix m(rows, cols);
  size_t k = 0;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) m(i, j) = values[k++];
  }
  return m;
}

// ---------------------------------------------------------- DenseMatrix

TEST(DenseMatrixTest, MultiplyKnown) {
  DenseMatrix a = MakeMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  DenseMatrix b = MakeMatrix(3, 2, {7, 8, 9, 10, 11, 12});
  DenseMatrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(DenseMatrixTest, TransposeMultiplyMatchesExplicitTranspose) {
  Rng rng(1);
  DenseMatrix a(5, 3);
  DenseMatrix b(5, 4);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 3; ++j) a(i, j) = rng.Normal();
    for (int64_t j = 0; j < 4; ++j) b(i, j) = rng.Normal();
  }
  DenseMatrix direct = a.TransposeMultiply(b);
  DenseMatrix via_t = a.Transpose().Multiply(b);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(direct(i, j), via_t(i, j), 1e-12);
    }
  }
}

TEST(DenseMatrixTest, FrobeniusNorm) {
  DenseMatrix a = MakeMatrix(2, 2, {3, 0, 0, 4});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
}

TEST(DenseMatrixTest, MaxColumnL1Norm) {
  DenseMatrix a = MakeMatrix(2, 3, {1, -2, 0, 3, 4, -1});
  // Column L1 norms: 4, 6, 1.
  EXPECT_DOUBLE_EQ(a.MaxColumnL1Norm(), 6.0);
}

TEST(HouseholderQTest, ColumnsAreOrthonormal) {
  Rng rng(2);
  DenseMatrix a(12, 5);
  for (int64_t i = 0; i < 12; ++i) {
    for (int64_t j = 0; j < 5; ++j) a(i, j) = rng.Normal();
  }
  DenseMatrix q = HouseholderQ(a);
  DenseMatrix qtq = q.TransposeMultiply(q);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(HouseholderQTest, SpansTheInputRange) {
  // Q Q^T A should equal A when A has full column rank.
  Rng rng(3);
  DenseMatrix a(8, 3);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 3; ++j) a(i, j) = rng.Normal();
  }
  DenseMatrix q = HouseholderQ(a);
  DenseMatrix proj = q.Multiply(q.TransposeMultiply(a));
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(proj(i, j), a(i, j), 1e-10);
    }
  }
}

// ------------------------------------------------------------------ SVD

TEST(JacobiSvdTest, DiagonalMatrix) {
  DenseMatrix a = MakeMatrix(3, 3, {3, 0, 0, 0, 5, 0, 0, 0, 4});
  SvdResult svd = JacobiSvd(a);
  ASSERT_EQ(svd.singular_values.size(), 3u);
  EXPECT_NEAR(svd.singular_values[0], 5.0, 1e-10);
  EXPECT_NEAR(svd.singular_values[1], 4.0, 1e-10);
  EXPECT_NEAR(svd.singular_values[2], 3.0, 1e-10);
}

TEST(JacobiSvdTest, ReconstructsInput) {
  Rng rng(5);
  DenseMatrix a(7, 4);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 4; ++j) a(i, j) = rng.Normal();
  }
  SvdResult svd = JacobiSvd(a);
  // Reconstruct U S V^T.
  DenseMatrix us = svd.u;
  for (int64_t i = 0; i < us.rows(); ++i) {
    for (int64_t j = 0; j < us.cols(); ++j) {
      us(i, j) *= svd.singular_values[static_cast<size_t>(j)];
    }
  }
  DenseMatrix rec = us.Multiply(svd.vt);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
    }
  }
}

TEST(RandomizedSvdTest, RecoversExactlyLowRankMatrix) {
  // Build a rank-3 matrix; rank-3 randomized SVD must reconstruct it.
  Rng rng(6);
  DenseMatrix left(20, 3);
  DenseMatrix right(3, 15);
  for (int64_t i = 0; i < 20; ++i) {
    for (int64_t j = 0; j < 3; ++j) left(i, j) = rng.Normal();
  }
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 15; ++j) right(i, j) = rng.Normal();
  }
  DenseMatrix a = left.Multiply(right);

  SvdOptions options;
  options.rank = 3;
  options.seed = 99;
  SvdResult svd = RandomizedSvd(a, options);
  ASSERT_EQ(svd.singular_values.size(), 3u);
  DenseMatrix us = svd.u;
  for (int64_t i = 0; i < us.rows(); ++i) {
    for (int64_t j = 0; j < us.cols(); ++j) {
      us(i, j) *= svd.singular_values[static_cast<size_t>(j)];
    }
  }
  DenseMatrix rec = us.Multiply(svd.vt);
  double err = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      err += (rec(i, j) - a(i, j)) * (rec(i, j) - a(i, j));
    }
  }
  EXPECT_LT(std::sqrt(err) / a.FrobeniusNorm(), 1e-8);
}

TEST(RandomizedSvdTest, SingularValuesDescending) {
  Rng rng(7);
  DenseMatrix a(30, 30);
  for (int64_t i = 0; i < 30; ++i) {
    for (int64_t j = 0; j < 30; ++j) a(i, j) = rng.Normal();
  }
  SvdOptions options;
  options.rank = 10;
  SvdResult svd = RandomizedSvd(a, options);
  for (size_t k = 1; k < svd.singular_values.size(); ++k) {
    EXPECT_GE(svd.singular_values[k - 1], svd.singular_values[k] - 1e-12);
  }
}

TEST(RandomizedSvdTest, DeterministicForSeed) {
  Rng rng(8);
  DenseMatrix a(10, 10);
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < 10; ++j) a(i, j) = rng.Normal();
  }
  SvdOptions options;
  options.rank = 4;
  options.seed = 5;
  SvdResult s1 = RandomizedSvd(a, options);
  SvdResult s2 = RandomizedSvd(a, options);
  for (size_t k = 0; k < s1.singular_values.size(); ++k) {
    EXPECT_DOUBLE_EQ(s1.singular_values[k], s2.singular_values[k]);
  }
}

TEST(JacobiSvdTest, RankDeficientMatrix) {
  // Two identical columns: one singular value must be ~0.
  DenseMatrix a = MakeMatrix(3, 2, {1, 1, 2, 2, 3, 3});
  SvdResult svd = JacobiSvd(a);
  ASSERT_EQ(svd.singular_values.size(), 2u);
  EXPECT_NEAR(svd.singular_values[0], std::sqrt(28.0), 1e-10);
  EXPECT_NEAR(svd.singular_values[1], 0.0, 1e-10);
  // Numerical rank 1: only the first value is above 1e-9 of the largest.
  EXPECT_GT(svd.singular_values[0], 0.0);
  EXPECT_LE(svd.singular_values[1], 1e-9 * svd.singular_values[0]);
}

TEST(JacobiSvdTest, ZeroMatrix) {
  DenseMatrix a(4, 3);
  SvdResult svd = JacobiSvd(a);
  for (double sv : svd.singular_values) EXPECT_DOUBLE_EQ(sv, 0.0);
}

TEST(JacobiSvdTest, SingularValuesMatchEigenvaluesOfGram) {
  // For A^T A, singular values squared are its eigenvalues; verify via
  // trace (sum of squared singular values == Frobenius norm squared).
  Rng rng(30);
  DenseMatrix a(6, 4);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 4; ++j) a(i, j) = rng.Normal();
  }
  SvdResult svd = JacobiSvd(a);
  double sum_sq = 0.0;
  for (double sv : svd.singular_values) sum_sq += sv * sv;
  double frob = a.FrobeniusNorm();
  EXPECT_NEAR(sum_sq, frob * frob, 1e-8);
}

TEST(HouseholderQTest, SquareIdentityInput) {
  DenseMatrix eye(3, 3);
  for (int64_t i = 0; i < 3; ++i) eye(i, i) = 1.0;
  DenseMatrix q = HouseholderQ(eye);
  // Q spans the identity's range; Q Q^T = I.
  DenseMatrix qqt = q.Multiply(q.Transpose());
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(qqt(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(HouseholderQTest, RankDeficientInputStaysOrthonormal) {
  // Columns 2 = 2 * column 1; Q must still have orthonormal columns.
  DenseMatrix a = MakeMatrix(4, 2, {1, 2, 2, 4, 3, 6, 4, 8});
  DenseMatrix q = HouseholderQ(a);
  DenseMatrix qtq = q.TransposeMultiply(q);
  EXPECT_NEAR(qtq(0, 0), 1.0, 1e-10);
  // The second column is arbitrary but normalized or zero.
  EXPECT_TRUE(std::fabs(qtq(1, 1) - 1.0) < 1e-10 ||
              std::fabs(qtq(1, 1)) < 1e-10);
  EXPECT_NEAR(qtq(0, 1), 0.0, 1e-10);
}

}  // namespace
}  // namespace privrec::la
