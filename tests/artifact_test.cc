// Tests for the two-phase build/serve split: build→save→load→serve
// round-trip bit-identity against the in-memory route of
// core::MakeRecommender (build → ServingEngine::FromModel → serve) for
// every mechanism at every thread count, the compatibility gates (graph /
// ε-provenance / missing sections, each with its own status code), content
// validation at open (one message per defect on both routes), and the
// privacy isolation of the serving layer. File-level robustness of the
// saved .pvram artifact lives in sharded_artifact_test.

// The isolation guarantee, checked at the include level: the serving
// headers are included FIRST, and must not (transitively) pull in the
// private graph containers. The CMake side of the same guarantee forbids
// privrec_serving from linking privrec_graph.
#include "artifact/format.h"
#include "artifact/model.h"
#include "artifact/reconstruct.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"

#if defined(PRIVREC_GRAPH_PREFERENCE_GRAPH_H_) || \
    defined(PRIVREC_GRAPH_SOCIAL_GRAPH_H_)
#error "serving headers must not include the private graph containers"
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/builder.h"
#include "artifact_files.h"
#include "common/parallel.h"
#include "community/louvain.h"
#include "core/dynamic_recommender.h"
#include "core/recommender_factory.h"
#include "data/synthetic.h"
#include "mechanisms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "similarity/common_neighbors.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

using core::RecommendationList;

class ArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("artifact_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    dataset_ = data::MakeTinyDataset(/*num_users=*/120, /*num_items=*/80,
                                     /*seed=*/7);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    louvain_ = community::RunLouvain(dataset_.social,
                                     {.restarts = 2, .seed = 3});
    for (graph::NodeId u = 0; u < dataset_.social.num_nodes(); ++u) {
      users_.push_back(u);
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  artifact::ModelArtifactBuilder MakeBuilder() {
    artifact::ModelArtifactBuilder builder(&dataset_.social,
                                           &dataset_.preferences);
    builder.SetPartition(&louvain_.partition);
    builder.SetWorkload(&workload_);
    return builder;
  }

  // Build (advancing the builder's publisher invocation), save, load, and
  // serve one batch — the full offline→online round trip.
  std::vector<RecommendationList> BuildSaveLoadServe(
      artifact::ModelArtifactBuilder& builder,
      const artifact::BuildOptions& build_options,
      const serving::ServeSpec& spec, const std::string& name) {
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = Path(name);
    Status saved = serving::SaveShardedArtifact(*model, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    auto engine = serving::ServingEngine::Load(path);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    auto server = serving::MakeServeRecommender(&*engine, spec);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return (*server)->Recommend(users_, kTopN).lists;
  }

  static constexpr int64_t kTopN = 10;
  static constexpr double kEps = 0.7;
  static constexpr uint64_t kSeed = 42;

  fs::path dir_;
  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  core::RecommenderContext context_;
  community::LouvainResult louvain_;
  std::vector<graph::NodeId> users_;
};

// ------------------------------------------------------------ bit-identity

// The paper's mechanism: the A_w release is frozen at build time, so the
// k-th Build+save+load+serve must reproduce the k-th Recommend of a fresh
// MakeRecommender("Cluster"), whose model never leaves RAM — at every
// thread count, owned storage against an actual file.
TEST_F(ArtifactTest, ClusterRoundTripBitIdentityAcrossThreadCounts) {
  // Reference: two successive in-memory releases at one thread.
  std::vector<std::vector<RecommendationList>> reference;
  {
    ScopedThreadCount baseline(1);
    auto rec = test_mechanisms::MakeCluster(context_, louvain_.partition,
                                            kEps, kSeed);
    reference.push_back(rec->Recommend(users_, kTopN));
    reference.push_back(rec->Recommend(users_, kTopN));
  }

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  for (int64_t threads : {int64_t{1}, int64_t{2}, HardwareThreads()}) {
    ScopedThreadCount scoped(threads);
    // In-memory stays thread-invariant...
    auto rec = test_mechanisms::MakeCluster(context_, louvain_.partition,
                                            kEps, kSeed);
    EXPECT_EQ(rec->Recommend(users_, kTopN), reference[0]) << threads;
    EXPECT_EQ(rec->Recommend(users_, kTopN), reference[1]) << threads;
    // ...and so does the build→save→load→serve route, invocation by
    // invocation.
    artifact::ModelArtifactBuilder builder = MakeBuilder();
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = kSeed;
    EXPECT_EQ(BuildSaveLoadServe(builder, build_options, spec, "c0.pvram"),
              reference[0])
        << threads;
    EXPECT_EQ(BuildSaveLoadServe(builder, build_options, spec, "c1.pvram"),
              reference[1])
        << threads;
  }
}

// The reference baselines draw fresh noise at serve time: the k-th call of
// a served artifact must equal the k-th call of a fresh MakeRecommender
// with the same seed, whose model stays in RAM.
TEST_F(ArtifactTest, BaselinesRoundTripBitIdentityAcrossThreadCounts) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  artifact::BuildOptions build_options;
  build_options.epsilon = kEps;
  build_options.seed = kSeed;
  build_options.include_reference_sections = true;
  build_options.include_lowrank = true;
  build_options.lrm_target_rank = 16;
  build_options.lrm_seed = kSeed;
  auto model = builder.Build(build_options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::string path = Path("full.pvram");
  ASSERT_TRUE(serving::SaveShardedArtifact(*model, path).ok());

  for (const char* mechanism : {"Exact", "NOU", "NOE", "GS", "LRM"}) {
    // Reference: two successive calls at one thread.
    std::vector<std::vector<RecommendationList>> reference;
    core::RecommenderSpec mem_spec;
    mem_spec.mechanism = mechanism;
    mem_spec.epsilon = kEps;
    mem_spec.seed = kSeed;
    mem_spec.gs_group_size = 8;
    mem_spec.lrm_target_rank = 16;
    {
      ScopedThreadCount baseline(1);
      auto rec = core::MakeRecommender(context_, mem_spec);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      reference.push_back((*rec)->Recommend(users_, kTopN));
      reference.push_back((*rec)->Recommend(users_, kTopN));
    }
    for (int64_t threads : {int64_t{1}, int64_t{2}, HardwareThreads()}) {
      ScopedThreadCount scoped(threads);
      auto engine = serving::ServingEngine::Load(path);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      serving::ServeSpec spec;
      spec.mechanism = mechanism;
      spec.epsilon = kEps;
      spec.seed = kSeed;
      spec.gs_group_size = 8;
      auto server = serving::MakeServeRecommender(&*engine, spec);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      EXPECT_EQ((*server)->Recommend(users_, kTopN).lists, reference[0])
          << mechanism << " threads=" << threads;
      EXPECT_EQ((*server)->Recommend(users_, kTopN).lists, reference[1])
          << mechanism << " threads=" << threads;
    }
  }
}

// ------------------------------------------------------------------ gates

TEST_F(ArtifactTest, GraphGateRefusesMismatchedFingerprint) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());
  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  spec.expected_graph_hash = builder.graph_hash() ^ 1;
  auto server = serving::MakeServeRecommender(&*engine, spec);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kGraphMismatch)
      << server.status().ToString();

  spec.expected_graph_hash = builder.graph_hash();
  EXPECT_TRUE(serving::MakeServeRecommender(&*engine, spec).ok());
}

TEST_F(ArtifactTest, EpsilonGateRefusesForeignProvenance) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model).provenance.epsilon, kEps);
  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps + 0.1;  // not the ε this release paid
  auto server = serving::MakeServeRecommender(&*engine, spec);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kProvenanceMismatch)
      << server.status().ToString();
}

TEST_F(ArtifactTest, MissingSectionsAreFailedPreconditions) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  artifact::BuildOptions build_options;
  build_options.epsilon = kEps;
  build_options.seed = kSeed;
  build_options.include_reference_sections = false;  // production shape
  auto model = builder.Build(build_options);
  ASSERT_TRUE(model.ok());
  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());

  for (const char* needs_preferences : {"Exact", "NOU", "NOE", "GS"}) {
    serving::ServeSpec spec;
    spec.mechanism = needs_preferences;
    spec.epsilon = kEps;
    auto server = serving::MakeServeRecommender(&*engine, spec);
    ASSERT_FALSE(server.ok()) << needs_preferences;
    EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition)
        << needs_preferences;
  }
  serving::ServeSpec lrm;
  lrm.mechanism = "LRM";
  lrm.epsilon = kEps;
  auto server = serving::MakeServeRecommender(&*engine, lrm);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);

  // LRM factors without the preferences section they are applied to: the
  // factors alone would serve pure noise, so this is refused too.
  artifact::BuildOptions lrm_only = build_options;
  lrm_only.include_lowrank = true;
  lrm_only.lrm_target_rank = 16;
  lrm_only.lrm_seed = kSeed;
  auto lrm_model = builder.Build(lrm_only);
  ASSERT_TRUE(lrm_model.ok()) << lrm_model.status().ToString();
  auto lrm_engine = serving::ServingEngine::FromModel(std::move(*lrm_model));
  ASSERT_TRUE(lrm_engine.ok());
  ASSERT_TRUE(lrm_engine->has_lowrank());
  ASSERT_FALSE(lrm_engine->has_preferences());
  auto lrm_server = serving::MakeServeRecommender(&*lrm_engine, lrm);
  ASSERT_FALSE(lrm_server.ok());
  EXPECT_EQ(lrm_server.status().code(), StatusCode::kFailedPrecondition);

  serving::ServeSpec unknown;
  unknown.mechanism = "Oracle";
  EXPECT_EQ(serving::MakeServeRecommender(&*engine, unknown).status().code(),
            StatusCode::kInvalidArgument);
}

// Every content defect of a release is kParseError naming its section,
// with one message whether the model is adopted in memory (FromModel) or
// saved as two shards and loaded: both routes run the engine's one
// validator. Unchecked, a NaN would be served as a utility and a negated
// score would break the fold's first-touch test and the block bounds.
// SaveShardedArtifact reads through bad cluster ids and offsets, so for
// those the Load route saves the clean release and rewrites the manifest
// section with the damaged model's array.
TEST_F(ArtifactTest, ContentDefectsFailAtOpenWithOneMessageOnBothRoutes) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  artifact::BuildOptions options;
  options.epsilon = kEps;
  options.seed = kSeed;
  options.include_reference_sections = true;
  options.table_f32 = true;
  auto built = builder.Build(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const serving::ArtifactModel& base = *built;
  ASSERT_FALSE(base.workload.entries.empty());
  ASSERT_FALSE(base.preferences.items.empty());
  const serving::ShardingOptions two_shards{.shards = 2};

  using Id = serving::ManifestSectionId;
  auto raw = [](const auto& v) {
    return std::string(reinterpret_cast<const char*>(v.data()),
                       v.size() * sizeof(v[0]));
  };
  // A model's copy of the manifest array `id`.
  auto manifest_array = [&raw](const serving::ArtifactModel& m, Id id) {
    if (id == Id::kClusterOf) return raw(m.partition.cluster_of);
    if (id == Id::kWorkloadOffsets) return raw(m.workload.offsets);
    return raw(m.preferences.offsets);
  };
  struct Damage {
    const char* section;
    const char* what;  // the defect, quoted in the message
    void (*apply)(serving::ArtifactModel&);
    // Set when SaveShardedArtifact would read through the defect: the
    // manifest section that carries the damaged array.
    std::optional<Id> in_manifest = std::nullopt;
  };
  const Damage damages[] = {
      {"noisy_table", "non-finite released value",
       [](serving::ArtifactModel& m) {
         // Without the mirror, whose source CRC would catch the edit first.
         m.has_noisy_f32 = false;
         m.noisy.values[m.noisy.values.size() / 2] = NAN;
       }},
      {"noisy_table_f32", "non-finite released value",
       [](serving::ArtifactModel& m) {
         m.noisy_f32.values[m.noisy_f32.values.size() / 3] = NAN;
       }},
      {"workload", "entry score is negative or not finite",
       [](serving::ArtifactModel& m) {
         serving::WorkloadEntry& e = m.workload.entries.back();
         e.score = -e.score;
       }},
      {"partition", "cluster id out of range",
       [](serving::ArtifactModel& m) {
         m.partition.cluster_of[5] = m.noisy.num_clusters;
       },
       Id::kClusterOf},
      {"workload", "offsets do not index the entries",
       [](serving::ArtifactModel& m) { ++m.workload.offsets.back(); },
       Id::kWorkloadOffsets},
      {"workload", "offsets not monotone",
       [](serving::ArtifactModel& m) {
         std::vector<uint64_t>& o = m.workload.offsets;
         o[o.size() / 2] = o[o.size() / 2 + 1] + 1;
       },
       Id::kWorkloadOffsets},
      {"preferences", "offsets not monotone",
       [](serving::ArtifactModel& m) {
         std::vector<uint64_t>& o = m.preferences.offsets;
         o[o.size() / 2] = o[o.size() / 2 + 1] + 1;
       },
       Id::kPrefOffsets},
      {"workload", "entry user out of range",
       [](serving::ArtifactModel& m) {
         m.workload.entries.front().user = m.meta.num_users;
       }},
      {"preferences", "item id out of range",
       [](serving::ArtifactModel& m) {
         m.preferences.items.back() = m.meta.num_items;
       }},
      {"noisy_table_f32", "source_crc32 does not match",
       [](serving::ArtifactModel& m) {
         // A finite edit of the f64 table the mirror no longer describes.
         m.noisy.values[m.noisy.values.size() / 2] += 1.0;
       }},
  };
  for (const Damage& damage : damages) {
    const std::string label =
        std::string(damage.section) + ": " + damage.what;
    serving::ArtifactModel model = base;
    damage.apply(model);

    const std::string path = Path("damaged.pvram");
    if (damage.in_manifest) {
      ASSERT_TRUE(serving::SaveShardedArtifact(base, path, two_shards).ok());
      test_artifacts::RewriteManifestSection(
          path, *damage.in_manifest,
          manifest_array(model, *damage.in_manifest));
    } else {
      ASSERT_TRUE(serving::SaveShardedArtifact(model, path, two_shards).ok())
          << label;
    }
    auto owned = serving::ServingEngine::FromModel(std::move(model));
    ASSERT_FALSE(owned.ok()) << label;
    EXPECT_EQ(owned.status().code(), StatusCode::kParseError)
        << owned.status().ToString();
    for (const std::string& quoted :
         {"'" + std::string(damage.section) + "'", std::string(damage.what)}) {
      EXPECT_NE(owned.status().message().find(quoted), std::string::npos)
          << label << " -> " << owned.status().ToString();
    }

    auto loaded = serving::ServingEngine::Load(path);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
    EXPECT_EQ(loaded.status().message(), owned.status().message()) << label;
  }

  // The undamaged release opens on both routes.
  const std::string clean = Path("clean.pvram");
  ASSERT_TRUE(serving::SaveShardedArtifact(base, clean, two_shards).ok());
  EXPECT_TRUE(serving::ServingEngine::Load(clean).ok());
  EXPECT_TRUE(serving::ServingEngine::FromModel(base).ok());

  // Load only, as one shard cannot disagree with itself: one workload
  // entry's count moves from a user of shard 0 to a user of shard 1. The
  // offsets still index the entries and stay monotone, but each shard's
  // rows no longer add up to its table total.
  const std::vector<int64_t> bounds = serving::ShardClusterBounds(base, 2);
  ASSERT_EQ(bounds.size(), 3u);
  const std::vector<uint64_t>& offsets = base.workload.offsets;
  auto shard_of = [&](size_t u) {
    return base.partition.cluster_of[u] < bounds[1] ? 0 : 1;
  };
  size_t from = 0;
  while (from + 1 < offsets.size() &&
         (shard_of(from) != 0 || offsets[from + 1] == offsets[from])) {
    ++from;
  }
  size_t to = 0;
  while (to + 1 < offsets.size() && shard_of(to) != 1) ++to;
  ASSERT_LT(from + 1, offsets.size());
  ASSERT_LT(to + 1, offsets.size());
  std::vector<uint64_t> moved = offsets;
  for (size_t k = std::min(from, to) + 1; k <= std::max(from, to); ++k) {
    if (from < to) {
      --moved[k];
    } else {
      ++moved[k];
    }
  }
  test_artifacts::RewriteManifestSection(clean, Id::kWorkloadOffsets,
                                         raw(moved));
  auto loaded = serving::ServingEngine::Load(clean);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_EQ(loaded.status().message(),
            "artifact section 'workload' invalid: shard workload rows "
            "disagree with the manifest totals");
}

// One open path, one span: FromModel records one artifact.engine span,
// and Load records artifact.map (the files' checks) and then one
// artifact.engine, so a trace times the engine's open on both routes.
TEST_F(ArtifactTest, EveryOpenRecordsOneEngineSpan) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::string path = Path("traced.pvram");
  ASSERT_TRUE(serving::SaveShardedArtifact(*model, path).ok());

  // The artifact.* spans `open` records, in the order they start.
  auto traced = [](auto open) {
    obs::Tracer& tracer = obs::Tracer::Instance();
    tracer.Clear();
    tracer.SetEnabled(true);
    EXPECT_TRUE(open());
    tracer.SetEnabled(false);
    std::vector<std::string> names;
    for (const obs::SpanRecord& s : tracer.Snapshot()) {
      if (s.name.rfind("artifact.", 0) == 0) names.push_back(s.name);
    }
    tracer.Clear();
    return names;
  };
  EXPECT_EQ(traced([&] {
              return serving::ServingEngine::FromModel(*model).ok();
            }),
            std::vector<std::string>{"artifact.engine"});
  EXPECT_EQ(traced([&] { return serving::ServingEngine::Load(path).ok(); }),
            (std::vector<std::string>{"artifact.map", "artifact.engine"}));
}

// ---------------------------------------------------------------- factory

TEST_F(ArtifactTest, FactoryServesFromAnEngineBehindTheSameInterface) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());

  core::RecommenderSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  spec.seed = kSeed;
  spec.partition = &louvain_.partition;
  const std::vector<RecommendationList> reference =
      test_mechanisms::Make(context_, spec)->Recommend(users_, kTopN);

  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());
  auto shared =
      std::make_shared<const serving::ServingEngine>(std::move(*engine));

  // The engine-owning recommender serves the same first release...
  spec.expected_graph_hash = builder.graph_hash();
  auto owning = core::MakeArtifactRecommender(shared, spec);
  ASSERT_TRUE(owning.ok()) << owning.status().ToString();
  EXPECT_EQ((*owning)->Name(), "Cluster");
  EXPECT_EQ((*owning)->Recommend(users_, kTopN), reference);

  // ...and passes the engine through the graph gate.
  spec.expected_graph_hash = builder.graph_hash() ^ 1;
  EXPECT_EQ(core::MakeArtifactRecommender(shared, spec).status().code(),
            StatusCode::kGraphMismatch);
}

// ---------------------------------------------------------------- dynamic

// A session without artifact_dir serves each snapshot's model from RAM
// (FromModel); with it, from the saved and reloaded file.
TEST_F(ArtifactTest, DynamicSessionArtifactRouteMatchesInMemory) {
  core::DynamicRecommenderOptions options;
  options.total_epsilon = 2.0;
  options.planned_snapshots = 4;
  options.seed = 11;
  core::DynamicRecommenderSession in_memory(options);
  options.artifact_dir = Path("snapshots");
  core::DynamicRecommenderSession two_phase(options);

  for (int64_t t = 0; t < 2; ++t) {
    auto a = in_memory.ProcessSnapshot(context_, users_, kTopN);
    auto b = two_phase.ProcessSnapshot(context_, users_, kTopN);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->lists, b->lists) << "snapshot " << t;
    EXPECT_EQ(a->epsilon_spent, b->epsilon_spent);
    // The snapshot's audit artifact landed on disk.
    EXPECT_TRUE(fs::exists(
        core::SnapshotArtifactPath(Path("snapshots"), t)));
  }
}

}  // namespace
}  // namespace privrec
