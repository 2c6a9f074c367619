#include "community/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"

namespace privrec::community {

namespace {

double SquaredDistance(const la::DenseMatrix& points, int64_t row,
                       const std::vector<double>& center) {
  const double* p = points.RowPtr(row);
  double acc = 0.0;
  for (size_t j = 0; j < center.size(); ++j) {
    double d = p[j] - center[j];
    acc += d * d;
  }
  return acc;
}

}  // namespace

KMeansResult RunKMeans(const la::DenseMatrix& points,
                       const KMeansOptions& options) {
  const int64_t n = points.rows();
  const int64_t d = points.cols();
  const int64_t k = options.k;
  PRIVREC_CHECK(k >= 1 && k <= n);
  Rng rng(options.seed);

  // k-means++ seeding.
  std::vector<std::vector<double>> centers;
  centers.reserve(static_cast<size_t>(k));
  auto row_vec = [&](int64_t r) {
    return std::vector<double>(points.RowPtr(r), points.RowPtr(r) + d);
  };
  centers.push_back(row_vec(static_cast<int64_t>(
      rng.UniformInt(static_cast<uint64_t>(n)))));
  std::vector<double> min_dist(static_cast<size_t>(n),
                               std::numeric_limits<double>::max());
  while (static_cast<int64_t>(centers.size()) < k) {
    double total = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      double dist = SquaredDistance(points, r, centers.back());
      min_dist[static_cast<size_t>(r)] =
          std::min(min_dist[static_cast<size_t>(r)], dist);
      total += min_dist[static_cast<size_t>(r)];
    }
    if (total <= 0.0) {
      // All points coincide with existing centers; pick uniformly.
      centers.push_back(row_vec(static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(n)))));
      continue;
    }
    double pick = rng.UniformDouble() * total;
    int64_t chosen = n - 1;
    double acc = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      acc += min_dist[static_cast<size_t>(r)];
      if (acc >= pick) {
        chosen = r;
        break;
      }
    }
    centers.push_back(row_vec(chosen));
  }

  // Lloyd iterations.
  std::vector<int64_t> assignment(static_cast<size_t>(n), 0);
  KMeansResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    bool changed = false;
    result.inertia = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      int64_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (int64_t c = 0; c < k; ++c) {
        double dist =
            SquaredDistance(points, r, centers[static_cast<size_t>(c)]);
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      result.inertia += best_dist;
      if (assignment[static_cast<size_t>(r)] != best) {
        assignment[static_cast<size_t>(r)] = best;
        changed = true;
      }
    }
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;

    // Recompute centers; re-seed empty clusters from the farthest point.
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (auto& c : centers) std::fill(c.begin(), c.end(), 0.0);
    for (int64_t r = 0; r < n; ++r) {
      int64_t c = assignment[static_cast<size_t>(r)];
      ++counts[static_cast<size_t>(c)];
      const double* p = points.RowPtr(r);
      for (int64_t j = 0; j < d; ++j) {
        centers[static_cast<size_t>(c)][static_cast<size_t>(j)] += p[j];
      }
    }
    for (int64_t c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] > 0) {
        for (double& x : centers[static_cast<size_t>(c)]) {
          x /= static_cast<double>(counts[static_cast<size_t>(c)]);
        }
      } else {
        // Empty cluster: re-seed at the point farthest from its center.
        int64_t far = 0;
        double far_dist = -1.0;
        for (int64_t r = 0; r < n; ++r) {
          double dist = SquaredDistance(
              points, r,
              centers[static_cast<size_t>(
                  assignment[static_cast<size_t>(r)])]);
          if (dist > far_dist) {
            far_dist = dist;
            far = r;
          }
        }
        centers[static_cast<size_t>(c)] = row_vec(far);
      }
    }
  }
  result.partition = Partition(assignment);
  return result;
}

la::DenseMatrix SpectralEmbedding(const graph::SocialGraph& g,
                                  const SpectralEmbeddingOptions& options) {
  const int64_t n = g.num_nodes();
  const int64_t d = std::min<int64_t>(options.dimensions, n);
  PRIVREC_CHECK(d >= 1);
  Rng rng(options.seed);

  std::vector<double> inv_sqrt_degree(static_cast<size_t>(n), 0.0);
  for (graph::NodeId u = 0; u < n; ++u) {
    int64_t deg = g.Degree(u);
    if (deg > 0) {
      inv_sqrt_degree[static_cast<size_t>(u)] =
          1.0 / std::sqrt(static_cast<double>(deg));
    }
  }

  // Block power iteration on M = D^{-1/2} A D^{-1/2} (+ small identity
  // shift so eigenvalues are positive and iteration converges to the top
  // eigenvectors).
  constexpr int kPowerIterations = 60;
  la::DenseMatrix block(n, d);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) block(i, j) = rng.Normal();
  }
  block = la::HouseholderQ(block);
  la::DenseMatrix next(n, d);
  for (int iter = 0; iter < kPowerIterations; ++iter) {
    // next = (M + 0.5 I) * block.
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        next(i, j) = 0.5 * block(i, j);
      }
    }
    for (graph::NodeId u = 0; u < n; ++u) {
      double su = inv_sqrt_degree[static_cast<size_t>(u)];
      if (su == 0.0) continue;
      double* out = next.RowPtr(u);
      for (graph::NodeId v : g.Neighbors(u)) {
        double w = su * inv_sqrt_degree[static_cast<size_t>(v)];
        const double* in = block.RowPtr(v);
        for (int64_t j = 0; j < d; ++j) out[j] += w * in[j];
      }
    }
    block = la::HouseholderQ(next);
  }

  // Ng-Jordan-Weiss row normalization.
  for (int64_t i = 0; i < n; ++i) {
    double* row = block.RowPtr(i);
    double norm = 0.0;
    for (int64_t j = 0; j < d; ++j) norm += row[j] * row[j];
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (int64_t j = 0; j < d; ++j) row[j] /= norm;
    }
  }
  return block;
}

Partition SpectralKMeans(const graph::SocialGraph& g, int64_t k,
                         uint64_t seed) {
  SpectralEmbeddingOptions embed_opt;
  embed_opt.dimensions = k;
  embed_opt.seed = seed;
  la::DenseMatrix embedding = SpectralEmbedding(g, embed_opt);
  KMeansOptions km_opt;
  km_opt.k = k;
  km_opt.seed = seed ^ 0x51ec;
  return RunKMeans(embedding, km_opt).partition;
}

}  // namespace privrec::community
