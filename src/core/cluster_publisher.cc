#include "core/cluster_publisher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "dp/mechanisms.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::core {

namespace {

// Per-chunk tallies of the noise-publication loop, folded in chunk order.
struct AverageTallies {
  int64_t empty_clusters = 0;
  int64_t singleton_clusters = 0;
  int64_t nonfinite_sanitized = 0;
};

}  // namespace

ClusterPublisher::ClusterPublisher(const RecommenderContext& context,
                                   community::Partition partition,
                                   const ClusterPublisherOptions& options)
    : context_(context),
      partition_(std::move(partition)),
      options_(options) {
  context_.CheckValid();
  PRIVREC_CHECK(partition_.num_nodes() == context_.social->num_nodes());
  PRIVREC_CHECK_MSG(dp::IsValidEpsilon(options_.epsilon), "bad epsilon");
}

ClusterRelease ClusterPublisher::ComputeRelease() {
  PRIVREC_SPAN("core.publication");
  const int64_t num_clusters = partition_.num_clusters();
  const graph::ItemId num_items = context_.preferences->num_items();
  // Fresh per-invocation noise keeps repeated trials independent while the
  // whole object stays deterministic under a fixed seed. Each chunk of
  // clusters draws from its own split stream, so the released noise is
  // bit-identical for every thread count (see common/parallel.h).
  const SplitRng split(options_.seed, invocation_++);

  ClusterRelease result;
  result.sanitized.assign(static_cast<size_t>(num_clusters), 0);

  // Lines 2-6 of Algorithm 1: per-(cluster, item) edge-weight sums via one
  // pass over the preference edges. Stays serial: it is O(edges) while the
  // noise stage below is O(clusters * items), and users of one cluster may
  // sit anywhere in the id range.
  std::vector<double>& averages = result.values;
  averages.assign(static_cast<size_t>(num_clusters * num_items), 0.0);
  for (graph::NodeId v = 0; v < context_.preferences->num_users(); ++v) {
    int64_t c = partition_.ClusterOf(v);
    double* row = averages.data() + c * num_items;
    auto items = context_.preferences->ItemsOf(v);
    auto weights = context_.preferences->WeightsOf(v);
    for (size_t k = 0; k < items.size(); ++k) {
      row[items[k]] += weights[k];
    }
  }
  // Line 7: divide by cluster size and add Lap(w_max / (|c| * eps)). The
  // sensitivity of a cluster average is w_max/|c| because one preference
  // edge changes exactly one cluster's sum by at most the largest allowed
  // weight (cluster membership is data-independent); w_max = 1 in the
  // paper's unweighted model. Clusters are processed in fixed chunks with
  // disjoint rows; the per-chunk tallies fold in chunk order.
  const double w_max = context_.preferences->max_weight();
  // Sensitivity of each released cluster row (w_max/|c|): small values mean
  // large clusters whose averages need little noise.
  static obs::Histogram& sensitivity_hist = obs::GetHistogram(
      "privrec.core.cluster_sensitivity",
      obs::ExponentialBuckets(1e-4, 4.0, 10));
  Result<AverageTallies> tallies = ParallelReduce(
      num_clusters, AverageTallies{},
      [&](int64_t chunk, int64_t begin, int64_t end) {
        dp::LaplaceMechanism laplace(
            options_.epsilon, split.StreamFor(static_cast<uint64_t>(chunk)));
        AverageTallies t;
        for (int64_t c = begin; c < end; ++c) {
          const int64_t members = partition_.ClusterSize(c);
          double* row = averages.data() + c * num_items;
          if (members == 0) {
            // An empty cluster holds no preference edges: there is no
            // average to release (dividing would manufacture 0/0 NaNs).
            // Its row stays zero and contributes nothing downstream.
            ++t.empty_clusters;
            continue;
          }
          if (members == 1) ++t.singleton_clusters;
          double size = static_cast<double>(members);
          double sensitivity = w_max / size;
          sensitivity_hist.Observe(sensitivity);
          for (graph::ItemId i = 0; i < num_items; ++i) {
            row[i] = laplace.Release(row[i] / size, sensitivity);
          }
          row[0] = fault::MaybePoison("cluster.noisy_averages", row[0]);
          for (graph::ItemId i = 0; i < num_items; ++i) {
            if (!std::isfinite(row[i])) {
              // Sanitizing a released value is post-processing: no extra ε.
              row[i] = 0.0;
              ++t.nonfinite_sanitized;
              result.sanitized[static_cast<size_t>(c)] = 1;
            }
          }
        }
        return t;
      },
      [](AverageTallies& acc, AverageTallies t) {
        acc.empty_clusters += t.empty_clusters;
        acc.singleton_clusters += t.singleton_clusters;
        acc.nonfinite_sanitized += t.nonfinite_sanitized;
      });
  PRIVREC_CHECK_MSG(tallies.ok(), tallies.status().message().c_str());
  result.empty_clusters = tallies->empty_clusters;
  result.singleton_clusters = tallies->singleton_clusters;
  result.nonfinite_sanitized = tallies->nonfinite_sanitized;

  static obs::Counter& releases = obs::GetCounter("privrec.core.releases");
  static obs::Counter& laplace_draws =
      obs::GetCounter("privrec.core.laplace_draws");
  static obs::Counter& empty =
      obs::GetCounter("privrec.core.empty_clusters");
  static obs::Counter& singleton =
      obs::GetCounter("privrec.core.singleton_clusters");
  static obs::Counter& sanitized =
      obs::GetCounter("privrec.core.nonfinite_sanitized");
  releases.Increment();
  laplace_draws.Add((num_clusters - result.empty_clusters) *
                    static_cast<int64_t>(num_items));
  empty.Add(result.empty_clusters);
  singleton.Add(result.singleton_clusters);
  sanitized.Add(result.nonfinite_sanitized);
  return result;
}

std::vector<double> ClusterPublisher::ComputeNoisyClusterAverages() {
  return ComputeRelease().values;
}

}  // namespace privrec::core
