// K-means clustering over node embeddings, plus a spectral embedding of
// the social graph.
//
// The paper's Section 5 remark explains why the framework does NOT use
// matrix clustering: k must be fixed a priori (and cannot be tuned
// against the private data without paying ε), and scalability suffers on
// large graphs. These implementations exist to test that remark head-on —
// the A1 ablation bench runs "spectral embedding + k-means" as a
// createClusters strategy next to Louvain. Both read only the public
// social graph, so they are privacy-valid strategies; the question is
// pure utility.
//
// KMeans: Lloyd's algorithm with k-means++ seeding and an empty-cluster
// re-seed rule. Deterministic given the seed.
//
// SpectralEmbedding: the top-d eigenvectors of the normalized adjacency
// D^{-1/2} A D^{-1/2}, computed by block power iteration with QR
// re-orthonormalization (the standard spectral-clustering embedding;
// rows are L2-normalized as in Ng-Jordan-Weiss).

#ifndef PRIVREC_COMMUNITY_KMEANS_H_
#define PRIVREC_COMMUNITY_KMEANS_H_

#include <cstdint>
#include <vector>

#include "community/partition.h"
#include "graph/social_graph.h"
#include "la/dense_matrix.h"

namespace privrec::community {

struct KMeansOptions {
  int64_t k = 8;
  int max_iterations = 50;
  uint64_t seed = 19;
};

struct KMeansResult {
  Partition partition;
  // Sum of squared distances to assigned centroids.
  double inertia = 0.0;
  int iterations = 0;
};

// Clusters the rows of `points` (n x d) into k groups. Requires
// 1 <= k <= n.
KMeansResult RunKMeans(const la::DenseMatrix& points,
                       const KMeansOptions& options);

struct SpectralEmbeddingOptions {
  int64_t dimensions = 8;
  uint64_t seed = 20;
};

// Returns an n x d embedding of the graph's nodes. Isolated nodes embed
// at the origin.
la::DenseMatrix SpectralEmbedding(const graph::SocialGraph& g,
                                  const SpectralEmbeddingOptions& options);

// Convenience: spectral embedding + k-means, the matrix-clustering
// strategy of the paper's Section 5 remark.
Partition SpectralKMeans(const graph::SocialGraph& g, int64_t k,
                         uint64_t seed);

}  // namespace privrec::community

#endif  // PRIVREC_COMMUNITY_KMEANS_H_
