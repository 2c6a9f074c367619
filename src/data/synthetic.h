// Synthetic datasets statistically matched to the paper's Table 1.
//
// The raw Last.fm / Flixster dumps are not redistributable; per DESIGN.md
// these factories generate substitutes that preserve the properties the
// framework's behaviour depends on: community structure (planted
// partition), heavy-tailed degrees at the published means, tiny extra
// components (Last.fm), community-correlated preferences at the published
// per-user rates, and preference-matrix sparsity.

#ifndef PRIVREC_DATA_SYNTHETIC_H_
#define PRIVREC_DATA_SYNTHETIC_H_

#include <cstdint>

#include "data/dataset.h"

namespace privrec::data {

struct SyntheticLastFmOptions {
  // Published scale; reduce for fast tests.
  int64_t num_users = 1892;
  int64_t num_items = 17632;
  double mean_degree = 13.4;       // Table 1: 13.4 (std 17.3)
  int64_t num_communities = 16;    // Section 6.2: 16 main-component clusters
  int64_t num_small_components = 19;  // Section 6.1: 19 components of 2-7
  double mixing = 0.12;
  // Taste sub-communities per graph community: finer than Louvain's
  // resolution, so cluster averages blend several taste groups. 1 keeps
  // tastes aligned with graph communities (the default — it reproduces
  // the paper's flat plateau best); larger values trade plateau flatness
  // for a bigger eps = inf approximation-error gap (see the A3 bench).
  int64_t taste_groups_per_community = 1;
  double sub_mixing = 0.55;
  double homophily = 0.8;
  // Fraction of preferences that are the user's private taste (invisible
  // to cluster averages); nudges the framework's eps = inf approximation
  // error toward the paper's Figure 1 anchor.
  double personal_taste = 0.25;
  uint64_t seed = 1;
};

struct SyntheticFlixsterOptions {
  // The paper's real Table-1 scale: 137,372 users, ~1.27M social edges at
  // mean degree 18.5, ~7.5M preference edges at 54.8 per user. Generating
  // this takes 16-21 s on one thread of a 4-CPU x86 host (g++ 12,
  // RelWithDebInfo; BENCH_scale.json) and the artifact bench serves it
  // whole; tests and benches that want a small substitute pass explicit
  // sizes.
  int64_t num_users = 137372;
  int64_t num_items = 48756;
  double mean_degree = 18.5;       // Table 1: 18.5 (std 31.1)
  int64_t num_communities = 46;    // Section 6.2: 46 clusters
  double mixing = 0.12;
  // Flixster's approximation error is smaller than Last.fm's (< 0.1 vs
  // 0.13-0.19): less personal taste, tastes aligned with communities.
  int64_t taste_groups_per_community = 1;
  double sub_mixing = 0.6;
  double homophily = 0.8;
  // Lower than Last.fm: the paper reports < 0.1 approximation-error loss
  // on Flixster vs 0.13-0.19 on Last.fm.
  double personal_taste = 0.15;
  uint64_t seed = 2;
};

Dataset MakeSyntheticLastFm(const SyntheticLastFmOptions& options = {});
Dataset MakeSyntheticFlixster(const SyntheticFlixsterOptions& options = {});

// Small dataset for unit/integration tests: a few hundred users, strong
// communities, deterministic.
Dataset MakeTinyDataset(int64_t num_users = 300, int64_t num_items = 400,
                        uint64_t seed = 3);

// Turns a static preference graph into `count` growing snapshots for the
// dynamic-graph extension: snapshot t contains a random (t+1)/count
// fraction of the edges, and snapshots are nested (edges only arrive,
// never depart). The last snapshot is the full graph.
std::vector<graph::PreferenceGraph> GrowingPreferenceSnapshots(
    const graph::PreferenceGraph& full, int64_t count, uint64_t seed);

}  // namespace privrec::data

#endif  // PRIVREC_DATA_SYNTHETIC_H_
