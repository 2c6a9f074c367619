#include "community/quality.h"

#include <algorithm>

#include "community/modularity.h"

namespace privrec::community {

namespace {

// Per-cluster cut and volume in one pass.
struct CutVolume {
  std::vector<double> cut;
  std::vector<double> volume;
  double total_volume = 0.0;
  int64_t intra_edges = 0;
};

CutVolume ComputeCutVolume(const graph::SocialGraph& g,
                           const Partition& partition) {
  CutVolume cv;
  cv.cut.assign(static_cast<size_t>(partition.num_clusters()), 0.0);
  cv.volume.assign(static_cast<size_t>(partition.num_clusters()), 0.0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    int64_t cu = partition.ClusterOf(u);
    cv.volume[static_cast<size_t>(cu)] += static_cast<double>(g.Degree(u));
    for (graph::NodeId v : g.Neighbors(u)) {
      if (partition.ClusterOf(v) != cu) {
        cv.cut[static_cast<size_t>(cu)] += 1.0;  // each direction once
      } else if (u < v) {
        ++cv.intra_edges;
      }
    }
  }
  cv.total_volume = 2.0 * static_cast<double>(g.num_edges());
  return cv;
}

}  // namespace

PartitionQuality EvaluatePartitionQuality(const graph::SocialGraph& g,
                                          const Partition& partition) {
  PRIVREC_CHECK(partition.num_nodes() == g.num_nodes());
  PartitionQuality q;
  q.modularity = Modularity(g, partition);
  if (g.num_edges() == 0) return q;
  CutVolume cv = ComputeCutVolume(g, partition);
  q.coverage = static_cast<double>(cv.intra_edges) /
               static_cast<double>(g.num_edges());
  double acc = 0.0;
  int64_t counted = 0;
  for (int64_t c = 0; c < partition.num_clusters(); ++c) {
    double vol = cv.volume[static_cast<size_t>(c)];
    double denom = std::min(vol, cv.total_volume - vol);
    if (denom <= 0.0) continue;
    double conductance = cv.cut[static_cast<size_t>(c)] / denom;
    acc += conductance;
    q.max_conductance = std::max(q.max_conductance, conductance);
    ++counted;
  }
  q.mean_conductance = counted > 0 ? acc / static_cast<double>(counted)
                                   : 0.0;
  return q;
}

}  // namespace privrec::community
