#include "artifact/serving.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <utility>

#include "artifact/shard_layout.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/random.h"
#include "dp/mechanisms.h"
#include "obs/trace.h"

namespace privrec::serving {

namespace {

// ---- Engine validation ----

Status Invalid(const char* section, const std::string& what) {
  return Status::ParseError("artifact section '" + std::string(section) +
                            "' invalid: " + what);
}

// ---- Serve-side dense accumulator ----
//
// A byte-for-byte replica of similarity::DenseScratch's accumulation
// semantics (zero-slot touch tracking, sorted strictly-positive
// extraction). Replicated rather than reused because linking the
// similarity library would pull the graph containers into the serving
// closure, breaking the isolation guarantee; the artifact_test round-trip
// pins the two implementations together.

class DenseAccumulator {
 public:
  void Resize(int64_t n) {
    if (static_cast<size_t>(n) > values_.size()) {
      values_.assign(static_cast<size_t>(n), 0.0);
    }
  }

  void Accumulate(int64_t v, double x) {
    double& slot = values_[static_cast<size_t>(v)];
    if (slot == 0.0 && x != 0.0) touched_.push_back(v);
    slot += x;
  }

  // Extracts all strictly-positive entries sorted by id, then clears.
  std::vector<std::pair<int64_t, double>> TakeSortedPositive() {
    std::sort(touched_.begin(), touched_.end());
    std::vector<std::pair<int64_t, double>> out;
    out.reserve(touched_.size());
    for (int64_t v : touched_) {
      double x = values_[static_cast<size_t>(v)];
      if (x > 0.0) out.emplace_back(v, x);
      values_[static_cast<size_t>(v)] = 0.0;
    }
    touched_.clear();
    return out;
  }

 private:
  std::vector<double> values_;
  std::vector<int64_t> touched_;
};

// mu_u = sum_{v in sim(u)} sim(u, v) * w(v, ·) over the artifact's
// preference CSR — the same sums as core::ExactRecommender, the
// independent reference the tests compare against.
std::vector<std::pair<int64_t, double>> ExactUtilityRow(
    const ServingEngine& engine, graph::NodeId u, DenseAccumulator* scratch) {
  scratch->Resize(engine.num_items());
  for (const WorkloadEntry& e : engine.WorkloadRow(u)) {
    auto items = engine.ItemsOf(e.user);
    auto weights = engine.WeightsOf(e.user);
    for (size_t k = 0; k < items.size(); ++k) {
      scratch->Accumulate(items[k], e.score * weights[k]);
    }
  }
  return scratch->TakeSortedPositive();
}

// ---- Serve mechanisms ----

class ClusterServe final : public ServeRecommender {
 public:
  explicit ClusterServe(const ServingEngine* engine) : engine_(engine) {}

  std::string Name() const override { return "Cluster"; }

  bool ConcurrentSafe() const override { return true; }

  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) override {
    PRIVREC_SPAN("artifact.reconstruction");
    core::RecommendedBatch batch;
    const NoisyTableSection& noisy = engine_->model().noisy;
    batch.report.empty_clusters = noisy.empty_clusters;
    batch.report.singleton_clusters = noisy.singleton_clusters;
    batch.report.nonfinite_sanitized = noisy.nonfinite_sanitized;
    Result<ReconstructCounts> counts = ReconstructTopN(
        engine_->release_view(),
        [this](graph::NodeId u) { return engine_->WorkloadRow(u); },
        [this]() -> const std::vector<double>& {
          return engine_->global_average();
        },
        users, top_n, &batch.lists, &batch.degradation);
    PRIVREC_CHECK_MSG(counts.ok(), counts.status().message().c_str());
    batch.report.users_degraded = counts->degraded;
    batch.report.bound_blocks_visited = counts->blocks_visited;
    batch.report.bound_blocks_total = counts->blocks_total;
    batch.report.bound_lines_summed = counts->lines_summed;
    core::RecordServingMetrics(batch);
    return batch;
  }

 private:
  const ServingEngine* engine_;
};

class ExactServe final : public ServeRecommender {
 public:
  explicit ExactServe(const ServingEngine* engine) : engine_(engine) {}

  std::string Name() const override { return "Exact"; }

  bool ConcurrentSafe() const override { return true; }

  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) override {
    core::RecommendedBatch batch;
    batch.lists.resize(users.size());
    batch.degradation.resize(users.size());
    Status run = ParallelFor(
        static_cast<int64_t>(users.size()),
        [&](int64_t, int64_t begin, int64_t end) {
          thread_local DenseAccumulator scratch;
          for (int64_t k = begin; k < end; ++k) {
            batch.lists[static_cast<size_t>(k)] = core::TopNFromSparse(
                ExactUtilityRow(*engine_, users[static_cast<size_t>(k)],
                                &scratch),
                top_n);
          }
        });
    PRIVREC_CHECK_MSG(run.ok(), run.message().c_str());
    return batch;
  }

 private:
  const ServingEngine* engine_;
};

// "Noise on Utility", the strawman of Section 5.1.1: Laplace noise on the
// exact utilities, μ̂_u^i = μ_u^i + Lap(Δ_A / ε) with Δ_A = w_max ·
// max_v Σ_u sim(u, v) — one preference edge (v, i) shifts the utility of
// item i for every user similar to v, by sim(u, v) each.
class NouServe final : public ServeRecommender {
 public:
  NouServe(const ServingEngine* engine, const ServeSpec& spec)
      : engine_(engine),
        spec_(spec),
        sensitivity_(engine->model().workload.max_column_sum *
                     engine->model().meta.max_weight) {}

  std::string Name() const override { return "NOU"; }

  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) override {
    const int64_t num_items = engine_->num_items();
    dp::LaplaceMechanism laplace(spec_.epsilon,
                                 Rng(spec_.seed).Fork(invocation_++));
    const double sensitivity = std::max(sensitivity_, 1e-12);

    core::RecommendedBatch batch;
    batch.lists.reserve(users.size());
    batch.degradation.resize(users.size());
    std::vector<double> utilities(static_cast<size_t>(num_items));
    for (graph::NodeId u : users) {
      std::fill(utilities.begin(), utilities.end(), 0.0);
      for (auto [item, value] : ExactUtilityRow(*engine_, u, &scratch_)) {
        utilities[static_cast<size_t>(item)] = value;
      }
      for (int64_t i = 0; i < num_items; ++i) {
        utilities[static_cast<size_t>(i)] =
            laplace.Release(utilities[static_cast<size_t>(i)], sensitivity);
      }
      batch.lists.push_back(core::TopNFromDense(utilities, top_n));
    }
    return batch;
  }

 private:
  const ServingEngine* engine_;
  ServeSpec spec_;
  double sensitivity_;
  DenseAccumulator scratch_;
  uint64_t invocation_ = 0;
};

// "Noise on Edges", the strawman of Section 5.1.1: Lap(w_max/ε) on the
// weight of every potential preference edge, then the exact utility
// computation on the sanitized weights. Each sanitized weight is released
// once and read by every query, so the |U| × |I| noise matrix (float) is
// materialized per call rather than re-sampled per query.
class NoeServe final : public ServeRecommender {
 public:
  NoeServe(const ServingEngine* engine, const ServeSpec& spec)
      : engine_(engine), spec_(spec) {}

  std::string Name() const override { return "NOE"; }

  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) override {
    const int64_t num_users = engine_->num_users();
    const int64_t num_items = engine_->num_items();
    Rng rng = Rng(spec_.seed).Fork(invocation_++);

    const bool noiseless = spec_.epsilon == dp::kEpsilonInfinity;
    const double scale =
        noiseless ? 0.0 : engine_->model().meta.max_weight / spec_.epsilon;
    std::vector<float> sanitized(
        static_cast<size_t>(num_users) * static_cast<size_t>(num_items),
        0.0f);
    if (!noiseless) {
      for (float& w : sanitized) {
        w = static_cast<float>(rng.Laplace(scale));
      }
    }
    for (graph::NodeId v = 0; v < num_users; ++v) {
      float* row = sanitized.data() +
                   static_cast<size_t>(v) * static_cast<size_t>(num_items);
      auto items = engine_->ItemsOf(v);
      auto weights = engine_->WeightsOf(v);
      for (size_t k = 0; k < items.size(); ++k) {
        row[static_cast<size_t>(items[k])] +=
            static_cast<float>(weights[k]);
      }
    }

    core::RecommendedBatch batch;
    batch.lists.reserve(users.size());
    batch.degradation.resize(users.size());
    std::vector<double> utilities(static_cast<size_t>(num_items));
    for (graph::NodeId u : users) {
      std::fill(utilities.begin(), utilities.end(), 0.0);
      for (const WorkloadEntry& e : engine_->WorkloadRow(u)) {
        const float* row =
            sanitized.data() +
            static_cast<size_t>(e.user) * static_cast<size_t>(num_items);
        double s = e.score;
        for (int64_t i = 0; i < num_items; ++i) {
          utilities[static_cast<size_t>(i)] +=
              s * static_cast<double>(row[static_cast<size_t>(i)]);
        }
      }
      batch.lists.push_back(core::TopNFromDense(utilities, top_n));
    }
    return batch;
  }

 private:
  const ServingEngine* engine_;
  ServeSpec spec_;
  uint64_t invocation_ = 0;
};

// The paper's adaptation (Section 6.4) of Group-and-Smooth (Kellaris &
// Papadopoulos, PVLDB'13), splitting ε in two halves:
//   - ε/2 buys "rough" estimates: each preference edge (v, i) contributes
//     to one estimate μ̃_u^i, u drawn uniformly from sim(v), plus Laplace
//     noise at sensitivity w_max · max_{u,v} sim(u, v);
//   - the true utilities of item i are sorted by the rough keys and cut
//     into groups of m, and each group is released as its mean plus
//     Lap(Δ / (ε/2)) with Δ = w_max · max_v Σ_u sim(u, v) / m.
// Every user of a group receives the group's noisy mean. The workload must
// hold every user's row and the measure must be symmetric.
//
// Degradation: a non-finite group mean is sanitized to 0 and its
// requested users are flagged kNonFiniteSanitized; a requested user with
// an empty similarity row is flagged kIsolatedUser; one all-user group is
// counted as degenerate. Fault point: gs.group_mean.
class GroupSmoothServe final : public ServeRecommender {
 public:
  GroupSmoothServe(const ServingEngine* engine, const ServeSpec& spec)
      : engine_(engine), spec_(spec) {}

  std::string Name() const override { return "GS"; }

  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) override {
    core::RecommendedBatch batch;
    const int64_t num_users = engine_->num_users();
    const int64_t num_items = engine_->num_items();
    const int64_t m = std::min<int64_t>(spec_.gs_group_size, num_users);
    Rng rng = Rng(spec_.seed).Fork(invocation_++);
    const double half_eps = spec_.epsilon == dp::kEpsilonInfinity
                                ? dp::kEpsilonInfinity
                                : spec_.epsilon / 2.0;
    dp::LaplaceMechanism rough_mech(half_eps, rng.Fork(1));
    dp::LaplaceMechanism group_mech(half_eps, rng.Fork(2));
    const double w_max = engine_->model().meta.max_weight;
    const double rough_sensitivity =
        std::max(engine_->model().workload.max_entry * w_max, 1e-12);
    const double group_sensitivity =
        std::max(engine_->model().workload.max_column_sum * w_max, 1e-12) /
        static_cast<double>(m);

    // One accumulator per distinct requested user; a user named in several
    // slots of the batch gets its list copied into each of them.
    std::vector<int64_t> accumulator_of(static_cast<size_t>(num_users), -1);
    std::vector<size_t> accumulator_of_slot;
    accumulator_of_slot.reserve(users.size());
    std::vector<core::TopNAccumulator> accumulators;
    for (graph::NodeId u : users) {
      int64_t& a = accumulator_of[static_cast<size_t>(u)];
      if (a < 0) {
        a = static_cast<int64_t>(accumulators.size());
        accumulators.emplace_back(top_n);
      }
      accumulator_of_slot.push_back(static_cast<size_t>(a));
    }

    std::vector<uint8_t> saw_sanitized(accumulators.size(), 0);
    std::vector<double> true_utilities(static_cast<size_t>(num_users));
    std::vector<double> rough(static_cast<size_t>(num_users));
    std::vector<graph::NodeId> order(static_cast<size_t>(num_users));

    for (graph::ItemId i = 0; i < num_items; ++i) {
      std::fill(true_utilities.begin(), true_utilities.end(), 0.0);
      std::fill(rough.begin(), rough.end(), 0.0);

      auto buyers = engine_->UsersOf(i);
      auto buyer_weights = engine_->ItemWeights(i);
      for (size_t b = 0; b < buyers.size(); ++b) {
        graph::NodeId v = buyers[b];
        double w = buyer_weights[b];
        auto row = engine_->WorkloadRow(v);
        for (const WorkloadEntry& e : row) {
          true_utilities[static_cast<size_t>(e.user)] += e.score * w;
        }
        if (!row.empty()) {
          const WorkloadEntry& pick = row[rng.UniformInt(row.size())];
          rough[static_cast<size_t>(pick.user)] += pick.score * w;
        }
      }
      for (graph::NodeId u = 0; u < num_users; ++u) {
        rough[static_cast<size_t>(u)] = rough_mech.Release(
            rough[static_cast<size_t>(u)], rough_sensitivity);
      }

      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](graph::NodeId a, graph::NodeId b) {
                  double ra = rough[static_cast<size_t>(a)];
                  double rb = rough[static_cast<size_t>(b)];
                  if (ra != rb) return ra > rb;
                  return a < b;
                });
      for (int64_t start = 0; start < num_users; start += m) {
        int64_t end = std::min<int64_t>(start + m, num_users);
        double sum = 0.0;
        for (int64_t k = start; k < end; ++k) {
          sum += true_utilities[static_cast<size_t>(
              order[static_cast<size_t>(k)])];
        }
        double mean = sum / static_cast<double>(end - start);
        double released = group_mech.Release(mean, group_sensitivity);
        released = fault::MaybePoison("gs.group_mean", released);
        bool sanitized = false;
        if (!std::isfinite(released)) {
          released = 0.0;
          sanitized = true;
          ++batch.report.nonfinite_sanitized;
        }
        if (end - start == num_users && num_users > 1) {
          ++batch.report.degenerate_groups;
        }
        for (int64_t k = start; k < end; ++k) {
          graph::NodeId u = order[static_cast<size_t>(k)];
          const int64_t a = accumulator_of[static_cast<size_t>(u)];
          if (a >= 0) {
            accumulators[static_cast<size_t>(a)].Offer(i, released);
            if (sanitized) saw_sanitized[static_cast<size_t>(a)] = 1;
          }
        }
      }
    }

    std::vector<core::RecommendationList> taken;
    taken.reserve(accumulators.size());
    for (core::TopNAccumulator& acc : accumulators) {
      taken.push_back(acc.Take());
    }
    batch.lists.reserve(users.size());
    batch.degradation.reserve(users.size());
    for (size_t k = 0; k < users.size(); ++k) {
      const size_t a = accumulator_of_slot[k];
      batch.lists.push_back(taken[a]);
      core::DegradationInfo info;
      if (engine_->WorkloadRow(users[k]).empty()) {
        info.reason = core::DegradationReason::kIsolatedUser;
      } else if (saw_sanitized[a]) {
        info.reason = core::DegradationReason::kNonFiniteSanitized;
      }
      if (info.degraded()) ++batch.report.users_degraded;
      batch.degradation.push_back(info);
    }
    return batch;
  }

 private:
  const ServingEngine* engine_;
  ServeSpec spec_;
  uint64_t invocation_ = 0;
};

// The Low-Rank Mechanism over the artifact's factors W ≈ B L (see
// core/low_rank_factorization.h): per item, ŷ_i = B (L D_i + Lap(Δ_L/ε)^r).
class LowRankServe final : public ServeRecommender {
 public:
  LowRankServe(const ServingEngine* engine, const ServeSpec& spec)
      : engine_(engine), spec_(spec) {}

  std::string Name() const override { return "LRM"; }

  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) override {
    const LowRankSection& lr = engine_->model().lowrank;
    const int64_t num_users = engine_->num_users();
    const int64_t num_items = engine_->num_items();
    const int64_t rank = lr.rank;
    dp::LaplaceMechanism laplace(spec_.epsilon,
                                 Rng(spec_.seed).Fork(invocation_++));
    const double sensitivity = std::max(lr.noise_sensitivity, 1e-12);

    std::vector<core::TopNAccumulator> accumulators;
    accumulators.reserve(users.size());
    for (size_t k = 0; k < users.size(); ++k) {
      PRIVREC_CHECK(users[k] >= 0 && users[k] < num_users);
      accumulators.emplace_back(top_n);
    }

    std::vector<double> strategy(static_cast<size_t>(rank));
    for (graph::ItemId i = 0; i < num_items; ++i) {
      std::fill(strategy.begin(), strategy.end(), 0.0);
      auto buyers = engine_->UsersOf(i);
      auto weights = engine_->ItemWeights(i);
      for (size_t b = 0; b < buyers.size(); ++b) {
        graph::NodeId v = buyers[b];
        double w = weights[b];
        // row-major rank x num_users
        const double* l_col = engine_->lowrank_l();
        for (int64_t k = 0; k < rank; ++k) {
          strategy[static_cast<size_t>(k)] +=
              w * l_col[static_cast<size_t>(k) *
                            static_cast<size_t>(num_users) +
                        static_cast<size_t>(v)];
        }
      }
      for (int64_t k = 0; k < rank; ++k) {
        strategy[static_cast<size_t>(k)] =
            laplace.Release(strategy[static_cast<size_t>(k)], sensitivity);
      }
      for (size_t k = 0; k < users.size(); ++k) {
        graph::NodeId u = users[k];
        const double* row = engine_->lowrank_b() + static_cast<size_t>(u) *
                                                       static_cast<size_t>(rank);
        double acc = 0.0;
        for (int64_t r = 0; r < rank; ++r) {
          acc += row[r] * strategy[static_cast<size_t>(r)];
        }
        accumulators[k].Offer(i, acc);
      }
    }

    core::RecommendedBatch batch;
    batch.lists.reserve(users.size());
    batch.degradation.resize(users.size());
    for (core::TopNAccumulator& acc : accumulators) {
      batch.lists.push_back(acc.Take());
    }
    return batch;
  }

 private:
  const ServingEngine* engine_;
  ServeSpec spec_;
  uint64_t invocation_ = 0;
};

}  // namespace

ReleaseView ServingEngine::release_view() const {
  ReleaseView view;
  view.rows = cluster_rows_.data();
  if (!cluster_rows_f32_.empty()) view.rows_f32 = cluster_rows_f32_.data();
  view.block_max = block_max_.data();
  view.tile_max = tile_max_.data();
  view.line_max = line_max_.data();
  view.sanitized = sanitized_;
  view.cluster_of = cluster_of_;
  view.cluster_sizes = cluster_sizes_;
  view.num_clusters = num_clusters_;
  view.num_items = model_.meta.num_items;
  view.num_users = model_.meta.num_users;
  return view;
}

Status ServingEngine::InitViews(
    std::span<const ShardTableEntry> table,
    std::span<const MappedArtifact::Shard> shards) {
  PRIVREC_SPAN("artifact.engine");
  const int64_t num_users = model_.meta.num_users;
  const int64_t num_items = model_.meta.num_items;
  if (num_users < 0 || num_items < 0) {
    return Invalid("graph_meta", "negative dimensions");
  }
  const size_t nu = static_cast<size_t>(num_users);
  const size_t ni = static_cast<size_t>(num_items);
  num_clusters_ = model_.noisy.num_clusters;
  const size_t nc = static_cast<size_t>(num_clusters_);
  const bool prefs = model_.has_preferences;
  const bool f32 = model_.has_noisy_f32;
  shard_count_ = static_cast<uint32_t>(table.size());

  // Content rules. Every one passes before a pointer table is built.
  // A cluster's size is its count of users: the global-average row
  // weighs each released row by it.
  std::vector<int64_t> members(nc, 0);
  for (size_t u = 0; u < nu; ++u) {
    if (cluster_of_[u] < 0 || cluster_of_[u] >= num_clusters_) {
      return Invalid("partition", "cluster id out of range");
    }
    ++members[static_cast<size_t>(cluster_of_[u])];
  }
  if (!std::equal(members.begin(), members.end(), cluster_sizes_)) {
    return Invalid("partition", "cluster sizes disagree with the cluster ids");
  }
  shard_of_cluster_.assign(nc, 0);
  uint64_t total_workload = 0;
  uint64_t total_pref = 0;
  for (size_t s = 0; s < table.size(); ++s) {
    for (int64_t c = table[s].cluster_begin; c < table[s].cluster_end; ++c) {
      shard_of_cluster_[static_cast<size_t>(c)] = static_cast<int32_t>(s);
    }
    total_workload += table[s].workload_entries;
    total_pref += table[s].pref_edges;
  }
  const uint64_t* wo = workload_offsets_;
  if (wo[0] != 0 || wo[nu] != total_workload) {
    return Invalid("workload", "offsets do not index the entries");
  }
  if (!std::is_sorted(wo, wo + nu + 1)) {
    return Invalid("workload", "offsets not monotone");
  }
  const uint64_t* po = pref_offsets_;
  if (prefs) {
    if (po[0] != 0 || po[nu] != total_pref) {
      return Invalid("preferences", "offsets do not index the edges");
    }
    if (!std::is_sorted(po, po + nu + 1)) {
      return Invalid("preferences", "offsets not monotone");
    }
  }
  // A user's rows sit in the shard owning its cluster, concatenated in
  // ascending user order (SaveShardedArtifact's order), so walking the
  // users with one cursor per shard must land on the shard's totals.
  std::vector<uint64_t> wcursor(table.size(), 0);
  std::vector<uint64_t> pcursor(table.size(), 0);
  for (size_t u = 0; u < nu; ++u) {
    const auto s = static_cast<size_t>(
        shard_of_cluster_[static_cast<size_t>(cluster_of_[u])]);
    wcursor[s] += wo[u + 1] - wo[u];
    if (prefs) pcursor[s] += po[u + 1] - po[u];
  }
  for (size_t s = 0; s < table.size(); ++s) {
    if (wcursor[s] != table[s].workload_entries) {
      return Invalid("workload",
                     "shard workload rows disagree with the manifest totals");
    }
    if (prefs && pcursor[s] != table[s].pref_edges) {
      return Invalid(
          "preferences",
          "shard preference rows disagree with the manifest totals");
    }
  }
  // An entry's neighbour is a user, and its score is finite and > 0: the
  // fold sums scores into cluster weights, reads a weight of 0 as a
  // cluster not yet touched, and reconstruction's block bounds hold only
  // for weights >= 0.
  for (size_t s = 0; s < table.size(); ++s) {
    for (uint64_t k = 0; k < table[s].workload_entries; ++k) {
      const WorkloadEntry& e = shards[s].workload_entries[k];
      if (e.user < 0 || e.user >= num_users) {
        return Invalid("workload", "entry user out of range");
      }
      if (!std::isfinite(e.score) || e.score <= 0.0) {
        return Invalid("workload", "entry score is not positive or not finite");
      }
    }
    if (!prefs) continue;
    for (uint64_t k = 0; k < table[s].pref_edges; ++k) {
      const int64_t i = shards[s].pref_items[k];
      if (i < 0 || i >= num_items) {
        return Invalid("preferences", "item id out of range");
      }
    }
  }
  if (f32) {
    // The mirror must bind to THIS release: a stale f32 section quantized
    // from an older f64 table would silently change rankings. The CRC
    // runs over the cluster rows in order, whichever shards hold them.
    uint32_t source = 0;
    for (size_t s = 0; s < table.size(); ++s) {
      const auto rows =
          static_cast<size_t>(table[s].cluster_end - table[s].cluster_begin);
      source = Crc32(shards[s].noisy_rows, rows * ni * sizeof(double), source);
    }
    if (source != model_.noisy_f32.source_crc32) {
      return Invalid("noisy_table_f32",
                     "source_crc32 does not match the f64 table it mirrors");
    }
  }

  // Per-cluster noisy rows, addressed inside their shard's block.
  cluster_rows_.resize(nc);
  if (f32) cluster_rows_f32_.resize(nc);
  for (size_t s = 0; s < table.size(); ++s) {
    for (int64_t c = table[s].cluster_begin; c < table[s].cluster_end; ++c) {
      const auto local =
          static_cast<size_t>(c - table[s].cluster_begin) * ni;
      cluster_rows_[static_cast<size_t>(c)] = shards[s].noisy_rows + local;
      if (f32) {
        cluster_rows_f32_[static_cast<size_t>(c)] =
            shards[s].noisy_rows_f32 + local;
      }
    }
  }
  // Per-user rows, by the same cursor walk.
  workload_row_.resize(nu);
  if (prefs) {
    pref_items_row_.resize(nu);
    pref_weights_row_.resize(nu);
  }
  std::fill(wcursor.begin(), wcursor.end(), 0);
  std::fill(pcursor.begin(), pcursor.end(), 0);
  for (size_t u = 0; u < nu; ++u) {
    const auto s = static_cast<size_t>(
        shard_of_cluster_[static_cast<size_t>(cluster_of_[u])]);
    workload_row_[u] = shards[s].workload_entries + wcursor[s];
    wcursor[s] += wo[u + 1] - wo[u];
    if (prefs) {
      pref_items_row_[u] = shards[s].pref_items + pcursor[s];
      pref_weights_row_[u] = shards[s].pref_weights + pcursor[s];
      pcursor[s] += po[u + 1] - po[u];
    }
  }
  return BuildDerived();
}

Status ServingEngine::BuildDerived() {
  // The bound and line tables, which also check every released value is
  // finite. The pass reads the rows through release_view(), so both
  // storage modes run the one check; the f64 table was CRC'd at open
  // (mapped) or is in memory (owned), so it touches no page the engine
  // would not. It also takes each cluster's largest |value| for the
  // overflow rule below.
  std::vector<double> value_max;
  Status bounds =
      BuildBlockBounds(release_view(), &block_max_, &line_max_, &value_max);
  if (!bounds.ok()) return bounds;
  BuildTileBounds(release_view(), &tile_max_);
  const size_t num_users = static_cast<size_t>(model_.meta.num_users);

  // Every sum serving forms stays below kSumLimit, so none can overflow
  // to ±inf (and none can then add +inf to -inf, a NaN utility whose rank
  // would depend on the dispatch level). A user's weights, and its weights
  // times the largest |value| of their clusters, bound every utility and
  // bound it sums; the global-average row sums |c| · ŵ_c over the
  // clusters.
  constexpr double kSumLimit = std::numeric_limits<double>::max() / 4;
  for (size_t u = 0; u < num_users; ++u) {
    double weight = 0.0;
    double served = 0.0;
    for (const WorkloadEntry& e :
         WorkloadRow(static_cast<graph::NodeId>(u))) {
      weight += e.score;
      served += e.score * value_max[static_cast<size_t>(
                              cluster_of_[static_cast<size_t>(e.user)])];
    }
    if (!(weight < kSumLimit && served < kSumLimit)) {
      return Invalid("workload", "a user's served sums can overflow");
    }
  }
  double global_sum = 0.0;
  for (size_t c = 0; c < value_max.size(); ++c) {
    global_sum += static_cast<double>(cluster_sizes_[c]) * value_max[c];
  }
  if (!(global_sum < kSumLimit)) {
    return Invalid("noisy_table", "the global-average sums can overflow");
  }

  // Derive the item-major preference CSR by a stable counting pass over
  // the user-major rows: per item, users come out ascending — identical to
  // PreferenceGraph::UsersOf ordering, which the GS/LRM serve loops need
  // for bit-identical replay. Runs through the accessors, so owned and
  // mapped storage produce the same derived arrays.
  const size_t num_items = static_cast<size_t>(model_.meta.num_items);
  item_offsets_.assign(num_items + 1, 0);
  if (model_.has_preferences) {
    size_t total = 0;
    for (size_t u = 0; u < num_users; ++u) {
      for (int64_t i : ItemsOf(static_cast<graph::NodeId>(u))) {
        ++item_offsets_[static_cast<size_t>(i) + 1];
        ++total;
      }
    }
    for (size_t i = 0; i < num_items; ++i) {
      item_offsets_[i + 1] += item_offsets_[i];
    }
    item_users_.resize(total);
    item_weights_.resize(total);
    std::vector<uint64_t> cursor(item_offsets_.begin(),
                                 item_offsets_.end() - 1);
    for (size_t u = 0; u < num_users; ++u) {
      auto items = ItemsOf(static_cast<graph::NodeId>(u));
      auto weights = WeightsOf(static_cast<graph::NodeId>(u));
      for (size_t k = 0; k < items.size(); ++k) {
        const size_t i = static_cast<size_t>(items[k]);
        const uint64_t slot = cursor[i]++;
        item_users_[slot] = static_cast<int64_t>(u);
        item_weights_[slot] = weights[k];
      }
    }
  }
  // The global-average fallback row is NOT computed here: it is lazy (see
  // global_average()), so constructing an epoch during a swap storm costs
  // no O(C·I) pass unless an isolated user actually arrives.
  return Status::Ok();
}

const std::vector<double>& ServingEngine::global_average() const {
  std::call_once(global_->once, [this] {
    PRIVREC_SPAN("artifact.global_average");
    global_->row = GlobalAverageUtilities(release_view());
  });
  return global_->row;
}

Result<ServingEngine> ServingEngine::FromModel(ArtifactModel model) {
  // Vector sizes only, the in-memory counterpart of MappedArtifact::Open's
  // byte-range checks; every content rule runs in InitViews. Negative
  // dimensions are rejected there: cast to size_t here they are huge, so
  // they cannot make a short vector pass for a long one.
  const size_t nu = static_cast<size_t>(model.meta.num_users);
  const size_t ni = static_cast<size_t>(model.meta.num_items);
  const int64_t num_clusters = model.noisy.num_clusters;
  if (model.partition.cluster_of.size() != nu) {
    return Invalid("partition", "cluster_of size != num_users");
  }
  if (model.workload.offsets.size() != nu + 1) {
    return Invalid("workload", "offsets do not index the entries");
  }
  if (model.partition.sizes.size() != static_cast<size_t>(num_clusters)) {
    return Invalid("noisy_table",
                   "cluster count disagrees with the partition");
  }
  // Checked by division, not by comparing against nc * ni: the counts come
  // from untrusted section headers, and a product in size_t can wrap back
  // to a plausible value (e.g. items = 2^62, clusters = 4) — the classic
  // path to sizing a vector smaller than the loop that fills it.
  const std::vector<double>& values = model.noisy.values;
  const bool noisy_sized =
      ni == 0 ? values.empty()
              : values.size() % ni == 0 &&
                    values.size() / ni == static_cast<size_t>(num_clusters);
  if (!noisy_sized) {
    return Invalid("noisy_table",
                   "value table is not num_clusters x num_items");
  }
  if (model.noisy.sanitized.size() != static_cast<size_t>(num_clusters)) {
    return Invalid("noisy_table", "sanitized flags size mismatch");
  }
  if (model.has_noisy_f32 && model.noisy_f32.values.size() != values.size()) {
    return Invalid("noisy_table_f32",
                   "f32 table size disagrees with the f64 table");
  }
  const PreferenceSection& p = model.preferences;
  if (model.has_preferences &&
      (p.offsets.size() != nu + 1 || p.items.size() != p.weights.size())) {
    return Invalid("preferences", "offsets do not index the edges");
  }
  if (model.has_lowrank) {
    const LowRankSection& lr = model.lowrank;
    // Same overflow discipline as the noisy table: a huge untrusted rank
    // must not wrap nu * rank into the size the vectors happen to have.
    const size_t rank = static_cast<size_t>(std::max<int64_t>(lr.rank, 0));
    const bool b_sized = rank == 0 ? lr.b.empty()
                                   : lr.b.size() % rank == 0 &&
                                         lr.b.size() / rank == nu;
    const bool l_sized = rank == 0 ? lr.l.empty()
                                   : lr.l.size() % rank == 0 &&
                                         lr.l.size() / rank == nu;
    if (lr.rank < 0 || !b_sized || !l_sized) {
      return Invalid("low_rank", "factor dimensions inconsistent");
    }
  }

  ServingEngine engine;
  engine.model_ = std::move(model);
  const ArtifactModel& m = engine.model_;
  engine.cluster_of_ = m.partition.cluster_of.data();
  engine.cluster_sizes_ = m.partition.sizes.data();
  engine.sanitized_ = m.noisy.sanitized.data();
  engine.workload_offsets_ = m.workload.offsets.data();
  if (m.has_preferences) engine.pref_offsets_ = m.preferences.offsets.data();
  if (m.has_lowrank) {
    engine.lowrank_b_ = m.lowrank.b.data();
    engine.lowrank_l_ = m.lowrank.l.data();
  }
  // The vectors as the one shard of a K = 1 layout: what InitViews reads
  // of a shard table entry and of a mapped shard.
  ShardTableEntry entry;
  entry.cluster_end = num_clusters;
  entry.workload_entries = m.workload.entries.size();
  MappedArtifact::Shard shard;
  shard.noisy_rows = m.noisy.values.data();
  shard.workload_entries = m.workload.entries.data();
  if (m.has_noisy_f32) shard.noisy_rows_f32 = m.noisy_f32.values.data();
  if (m.has_preferences) {
    entry.pref_edges = m.preferences.items.size();
    shard.pref_items = m.preferences.items.data();
    shard.pref_weights = m.preferences.weights.data();
  }
  Status init = engine.InitViews({&entry, 1}, {&shard, 1});
  if (!init.ok()) return init;
  return engine;
}

Result<ServingEngine> ServingEngine::FromMapped(
    std::shared_ptr<const MappedArtifact> mapped) {
  PRIVREC_CHECK(mapped != nullptr);
  ServingEngine engine;
  engine.mapped_ = std::move(mapped);
  const MappedArtifact& a = *engine.mapped_;

  // Scalars live in the manifest's metadata blob; the arrays stay in the
  // mapped files and are reached through the views.
  const ManifestMeta& mm = a.meta();
  engine.model_.meta = mm.meta;
  engine.model_.provenance = mm.provenance;
  engine.model_.workload.max_column_sum = mm.max_column_sum;
  engine.model_.workload.max_entry = mm.max_entry;
  engine.model_.noisy.num_clusters = mm.num_clusters;
  engine.model_.noisy.empty_clusters = mm.empty_clusters;
  engine.model_.noisy.singleton_clusters = mm.singleton_clusters;
  engine.model_.noisy.nonfinite_sanitized = mm.nonfinite_sanitized;
  engine.model_.has_preferences = mm.has_preferences;
  engine.model_.has_lowrank = mm.has_lowrank;
  engine.model_.has_noisy_f32 = mm.has_noisy_f32;
  engine.model_.noisy_f32.source_crc32 = mm.noisy_f32_source_crc32;
  engine.model_.lowrank.rank = mm.lowrank_rank;
  engine.model_.lowrank.noise_sensitivity = mm.lowrank_noise_sensitivity;
  engine.model_.lowrank.factorization_error = mm.lowrank_factorization_error;

  engine.cluster_of_ = a.cluster_of();
  engine.cluster_sizes_ = a.cluster_sizes();
  engine.sanitized_ = a.sanitized();
  engine.workload_offsets_ = a.workload_offsets();
  engine.pref_offsets_ = a.pref_offsets();
  engine.lowrank_b_ = a.lowrank_b();
  engine.lowrank_l_ = a.lowrank_l();
  Status init = engine.InitViews(a.shard_table(), a.shards());
  if (!init.ok()) return init;
  return engine;
}

Result<ServingEngine> ServingEngine::Load(const std::string& path) {
  // A shard file is an aligned container too, just not a manifest: name
  // the mistake instead of reporting a foreign magic.
  uint32_t magic = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  }
  if (magic == kShardMagic) {
    return Status::InvalidArgument(
        "'" + path +
        "' is a shard file; load its .pvram manifest instead");
  }
  Result<std::shared_ptr<const MappedArtifact>> mapped =
      MappedArtifact::Open(path, MapOptionsFromEnv());
  if (!mapped.ok()) return mapped.status();
  return FromMapped(std::move(*mapped));
}

Status ServingEngine::CheckGraph(uint64_t expected_hash) const {
  if (model_.meta.graph_hash != expected_hash) {
    return Status::GraphMismatch(
        "artifact was built from a different dataset (fingerprint " +
        std::to_string(model_.meta.graph_hash) + ", requested " +
        std::to_string(expected_hash) + ")");
  }
  return Status::Ok();
}

Status ServingEngine::CheckEpsilon(double expected_epsilon) const {
  if (model_.provenance.epsilon != expected_epsilon) {
    return Status::ProvenanceMismatch(
        "artifact's DP release paid epsilon = " +
        std::to_string(model_.provenance.epsilon) +
        ", request asked for epsilon = " + std::to_string(expected_epsilon));
  }
  return Status::Ok();
}

Result<std::unique_ptr<ServeRecommender>> MakeServeRecommender(
    const ServingEngine* engine, const ServeSpec& spec) {
  PRIVREC_CHECK(engine != nullptr);
  if (spec.expected_graph_hash != 0) {
    Status gate = engine->CheckGraph(spec.expected_graph_hash);
    if (!gate.ok()) return gate;
  }

  if (spec.mechanism == "Cluster") {
    // The cluster release is frozen in the artifact: serving it under a
    // different ε than it paid would misreport the privacy guarantee.
    Status gate = engine->CheckEpsilon(spec.epsilon);
    if (!gate.ok()) return gate;
    return std::unique_ptr<ServeRecommender>(
        std::make_unique<ClusterServe>(engine));
  }

  if (!dp::IsValidEpsilon(spec.epsilon)) {
    return Status::InvalidArgument("bad epsilon for mechanism '" +
                                   spec.mechanism + "'");
  }

  if (spec.mechanism == "LRM") {
    if (!engine->has_lowrank()) {
      return Status::FailedPrecondition(
          "artifact has no low_rank section; rebuild with LRM factors");
    }
    // LRM noises L·D_i, which reads the item-major preference CSR; without
    // it every strategy row is zero and the lists are pure Laplace noise.
    if (!engine->has_preferences()) {
      return Status::FailedPrecondition(
          "artifact has no preferences section (LRM needs one; rebuild with "
          "include_reference_sections)");
    }
    return std::unique_ptr<ServeRecommender>(
        std::make_unique<LowRankServe>(engine, spec));
  }

  if (spec.mechanism == "Exact" || spec.mechanism == "NOU" ||
      spec.mechanism == "NOE" || spec.mechanism == "GS") {
    if (!engine->has_preferences()) {
      return Status::FailedPrecondition(
          "artifact has no preferences section (reference baselines need "
          "one; rebuild with include_reference_sections)");
    }
    if (spec.mechanism == "Exact") {
      return std::unique_ptr<ServeRecommender>(
          std::make_unique<ExactServe>(engine));
    }
    if (spec.mechanism == "NOU") {
      return std::unique_ptr<ServeRecommender>(
          std::make_unique<NouServe>(engine, spec));
    }
    if (spec.mechanism == "NOE") {
      return std::unique_ptr<ServeRecommender>(
          std::make_unique<NoeServe>(engine, spec));
    }
    if (spec.gs_group_size < 1) {
      return Status::InvalidArgument("gs_group_size must be >= 1");
    }
    return std::unique_ptr<ServeRecommender>(
        std::make_unique<GroupSmoothServe>(engine, spec));
  }

  return Status::InvalidArgument("unknown mechanism '" + spec.mechanism +
                                 "'");
}

}  // namespace privrec::serving
