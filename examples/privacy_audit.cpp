// Empirical privacy audit of the framework's noise-injection boundary.
//
// Theorem 4 proves that module A_w (the noisy cluster-item averages) is
// ε-differentially private; everything downstream is post-processing. This
// example audits the claim the way a skeptical practitioner would, using
// the dp::AuditDpRatio falsifier: run A_w many times on two neighboring
// preference graphs (differing in exactly one edge), histogram the
// released value the edge can influence, and check that the measured
// density ratio stays inside e^ε. For contrast, it also audits a
// deliberately broken variant (noise calibrated to a 10x weaker ε) and
// shows the audit catching it.
//
//   ./privacy_audit [--epsilon=0.7] [--samples=40000]

#include <cmath>
#include <cstdio>

#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "community/partition.h"
#include "core/cluster_publisher.h"
#include "dp/audit.h"
#include "similarity/common_neighbors.h"
#include "similarity/workload.h"

int main(int argc, char** argv) {
  using namespace privrec;
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  const double epsilon = flags.GetDouble("epsilon", 0.7);
  const int64_t samples = flags.GetInt("samples", 40000);
  if (!flags.Validate()) return 1;

  // Two triangles bridged by one edge; clusters = the triangles.
  graph::SocialGraph social = graph::SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  graph::PreferenceGraph d1 =
      graph::PreferenceGraph::FromEdges(6, 2, {{0, 0}, {1, 0}, {4, 1}});
  graph::PreferenceGraph d2 = d1.WithEdge(2, 0);  // the target edge
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(
          social, similarity::CommonNeighbors());
  community::Partition clusters({0, 0, 0, 1, 1, 1});
  core::RecommenderContext ctx1{&social, &d1, &workload};
  core::RecommenderContext ctx2{&social, &d2, &workload};

  std::printf("auditing A_w at epsilon = %.2f, %lld samples per world; "
              "neighboring inputs differ in edge (user 2, item 0)\n\n",
              epsilon, static_cast<long long>(samples));

  dp::AuditOptions opt;
  opt.lo = -1.5;
  opt.hi = 2.5;
  opt.samples = samples;
  // The released value the target edge can influence: cluster 0's average
  // for item 0 (row-major [cluster][item], 2 items per row).
  auto run_audit = [&](double mechanism_epsilon) {
    core::ClusterPublisher m1(ctx1, clusters,
                              {.epsilon = mechanism_epsilon, .seed = 101});
    core::ClusterPublisher m2(ctx2, clusters,
                              {.epsilon = mechanism_epsilon, .seed = 202});
    return dp::AuditDpRatio(
        [&] { return m1.ComputeNoisyClusterAverages()[0]; },
        [&] { return m2.ComputeNoisyClusterAverages()[0]; }, epsilon, opt);
  };

  dp::AuditResult honest = run_audit(epsilon);
  std::printf("honest mechanism (noise for eps = %.2f):  %s\n", epsilon,
              honest.ToString().c_str());

  dp::AuditResult broken = run_audit(epsilon * 10.0);
  std::printf("broken mechanism (noise for eps = %.2f): %s\n",
              epsilon * 10.0, broken.ToString().c_str());

  std::printf(
      "\nthe audit is a falsifier, not a proof: the honest release stays "
      "inside e^%.2f = %.3f while the under-noised variant is caught "
      "immediately.\n",
      epsilon, std::exp(epsilon));
  return honest.passed && !broken.passed ? 0 : 1;
}
