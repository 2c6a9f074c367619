#include "la/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace privrec::la {

namespace {

// Sorts the SVD factors by descending singular value.
void SortByDescendingSigma(SvdResult* svd) {
  int64_t r = static_cast<int64_t>(svd->singular_values.size());
  std::vector<int64_t> order(static_cast<size_t>(r));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return svd->singular_values[static_cast<size_t>(a)] >
           svd->singular_values[static_cast<size_t>(b)];
  });
  DenseMatrix u(svd->u.rows(), r);
  DenseMatrix vt(r, svd->vt.cols());
  std::vector<double> sigma(static_cast<size_t>(r));
  for (int64_t k = 0; k < r; ++k) {
    int64_t src = order[static_cast<size_t>(k)];
    sigma[static_cast<size_t>(k)] =
        svd->singular_values[static_cast<size_t>(src)];
    for (int64_t i = 0; i < u.rows(); ++i) u(i, k) = svd->u(i, src);
    for (int64_t j = 0; j < vt.cols(); ++j) vt(k, j) = svd->vt(src, j);
  }
  svd->u = std::move(u);
  svd->vt = std::move(vt);
  svd->singular_values = std::move(sigma);
}

}  // namespace

SvdResult JacobiSvd(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  PRIVREC_CHECK(m >= n);
  // One-sided Jacobi: orthogonalize the columns of G = A * V by plane
  // rotations; at convergence G's columns are sigma_i * u_i.
  DenseMatrix g = a;
  DenseMatrix v(n, n);
  for (int64_t i = 0; i < n; ++i) v(i, i) = 1.0;

  const double kTol = 1e-13;
  const int kMaxSweeps = 60;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (int64_t i = 0; i < m; ++i) {
          app += g(i, p) * g(i, p);
          aqq += g(i, q) * g(i, q);
          apq += g(i, p) * g(i, q);
        }
        if (std::fabs(apq) <= kTol * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        off = std::max(off, std::fabs(apq) / std::sqrt(app * aqq + 1e-300));
        double tau = (aqq - app) / (2.0 * apq);
        double t = (tau >= 0 ? 1.0 : -1.0) /
                   (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = c * t;
        for (int64_t i = 0; i < m; ++i) {
          double gp = g(i, p);
          double gq = g(i, q);
          g(i, p) = c * gp - s * gq;
          g(i, q) = s * gp + c * gq;
        }
        for (int64_t i = 0; i < n; ++i) {
          double vp = v(i, p);
          double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (off < kTol) break;
  }

  SvdResult out;
  out.u = DenseMatrix(m, n);
  out.vt = v.Transpose();
  out.singular_values.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (int64_t i = 0; i < m; ++i) norm += g(i, j) * g(i, j);
    norm = std::sqrt(norm);
    out.singular_values[static_cast<size_t>(j)] = norm;
    if (norm > 1e-300) {
      for (int64_t i = 0; i < m; ++i) out.u(i, j) = g(i, j) / norm;
    }
  }
  SortByDescendingSigma(&out);
  return out;
}

SvdResult RandomizedSvd(const DenseMatrix& a, const SvdOptions& options) {
  // Extra random probes for range accuracy, and subspace iterations
  // (they sharpen a slowly decaying spectrum).
  constexpr int64_t kOversampling = 8;
  constexpr int kPowerIterations = 2;
  PRIVREC_CHECK(options.rank > 0);
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t r = std::min({options.rank, m, n});
  const int64_t p = std::min(r + kOversampling, std::min(m, n));

  // Stage A: find an orthonormal basis Q for the range of A using random
  // Gaussian probes, with power iterations to sharpen the spectrum.
  Rng rng(options.seed);
  DenseMatrix omega(n, p);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < p; ++j) omega(i, j) = rng.Normal();
  }
  DenseMatrix y = a.Multiply(omega);  // m x p
  DenseMatrix q = HouseholderQ(y);
  for (int it = 0; it < kPowerIterations; ++it) {
    DenseMatrix z = a.TransposeMultiply(q);  // n x p
    DenseMatrix qz = HouseholderQ(z);
    y = a.Multiply(qz);  // m x p
    q = HouseholderQ(y);
  }

  // Stage B: project, SVD the small matrix, lift back.
  DenseMatrix b = q.TransposeMultiply(a).Transpose();  // n x p; b^T = Q^T A
  SvdResult small = JacobiSvd(b);  // b = Us S Vs^T, so Q^T A = Vs S Us^T
  // A ~= (Q Vs) S Us^T  => u = Q * Vs, vt = Us^T.
  DenseMatrix vs(small.vt.cols(), small.vt.rows());
  vs = small.vt.Transpose();

  SvdResult out;
  out.u = q.Multiply(vs);           // m x p
  out.vt = small.u.Transpose();     // p x n
  out.singular_values = small.singular_values;

  // Truncate to rank r.
  if (p > r) {
    DenseMatrix u(m, r);
    DenseMatrix vt(r, n);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t k = 0; k < r; ++k) u(i, k) = out.u(i, k);
    }
    for (int64_t k = 0; k < r; ++k) {
      for (int64_t j = 0; j < n; ++j) vt(k, j) = out.vt(k, j);
    }
    out.u = std::move(u);
    out.vt = std::move(vt);
    out.singular_values.resize(static_cast<size_t>(r));
  }
  return out;
}

}  // namespace privrec::la
