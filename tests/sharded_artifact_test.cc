// Correctness suite for the .pvram artifact (manifest + K shard files) and
// the mmap zero-copy serve path:
//   - bit-identity: every mechanism served from a saved artifact (any K,
//     mmap or read-fallback, any thread count) reproduces the exact bytes
//     of the in-memory route, invocation by invocation;
//   - byte-determinism of the save across thread counts;
//   - corruption fuzzing: truncation, bit flips, version skew, foreign
//     files, missing / resized shard files, cross-artifact shard mixing
//     and armed fault points each fail closed with their own status code,
//     never a crash or a partial load;
//   - the untrusted-header overflow regression (vector sizing must be
//     validated by division, not a wrappable product);
//   - the serve runtime answering from K = 3 exactly as from K = 1.

// Isolation guarantee, checked at the include level exactly like
// artifact_test: the serving-side headers come FIRST and must not pull in
// the private graph containers.
#include "artifact/mapped.h"
#include "artifact/model.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "serve/runtime.h"
#include "serve/statusz.h"
#include "serve/telemetry.h"

#if defined(PRIVREC_GRAPH_PREFERENCE_GRAPH_H_) || \
    defined(PRIVREC_GRAPH_SOCIAL_GRAPH_H_)
#error "serving headers must not include the private graph containers"
#endif

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact_files.h"
#include "artifact/builder.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "community/louvain.h"
#include "core/recommender_factory.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "similarity/common_neighbors.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

using core::RecommendationList;
using test_artifacts::FlipPayloadBit;
using test_artifacts::ShardPaths;

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class ShardedArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("privrec_sharded_" +
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
  void TearDown() override {
    fault::FaultInjector::Instance().Reset();
    unsetenv("PRIVREC_NO_MMAP");
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // A full artifact (reference sections + low-rank factors) so all six
  // mechanisms can serve from it.
  serving::ArtifactModel BuildFullModel(uint64_t seed = kSeed) {
    artifact::ModelArtifactBuilder builder(&dataset_.social,
                                           &dataset_.preferences);
    builder.SetPartition(&louvain_.partition);
    builder.SetWorkload(&workload_);
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = seed;
    build_options.include_reference_sections = true;
    build_options.include_lowrank = true;
    build_options.lrm_target_rank = 16;
    build_options.lrm_seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(*model);
  }

  static serving::ServeSpec SpecFor(const std::string& mechanism) {
    serving::ServeSpec spec;
    spec.mechanism = mechanism;
    spec.epsilon = kEps;
    spec.seed = kSeed;
    spec.gs_group_size = 8;
    return spec;
  }

  // Serves two successive batches from a fresh ServeRecommender — the
  // fresh-noise mechanisms advance their RNG stream per call, so both
  // invocations must be compared.
  std::vector<std::vector<RecommendationList>> ServeTwice(
      serving::ServingEngine* engine, const std::string& mechanism) {
    auto server = serving::MakeServeRecommender(engine, SpecFor(mechanism));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    std::vector<std::vector<RecommendationList>> out;
    out.push_back((*server)->Recommend(users_, kTopN).lists);
    out.push_back((*server)->Recommend(users_, kTopN).lists);
    return out;
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

// The matrix: six mechanisms x K in {1,2,7} x {mmap, read-fallback} x
// thread counts {1,4}, every cell against a single 1-thread in-memory
// reference. The release is frozen at build time and sharding is pure
// post-processing, so every cell must be BYTE-identical.
TEST_F(ShardedArtifactTest, AllMechanismsBitIdenticalAcrossShardsAndModes) {
  serving::ArtifactModel model = BuildFullModel();

  const std::vector<int64_t> shard_counts = {1, 2, 7};
  std::vector<std::string> manifests;
  for (int64_t k : shard_counts) {
    const std::string path = Path("full_k" + std::to_string(k) + ".pvram");
    ASSERT_TRUE(
        serving::SaveShardedArtifact(model, path, {.shards = k}).ok());
    manifests.push_back(path);
  }

  for (const char* mechanism :
       {"Cluster", "Exact", "NOU", "NOE", "GS", "LRM"}) {
    // Reference: the in-memory engine at one thread.
    std::vector<std::vector<RecommendationList>> reference;
    {
      ScopedThreadCount baseline(1);
      serving::ArtifactModel copy = model;
      auto engine = serving::ServingEngine::FromModel(std::move(copy));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      reference = ServeTwice(&*engine, mechanism);
    }

    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
      ScopedThreadCount scoped(threads);
      for (size_t i = 0; i < manifests.size(); ++i) {
        for (bool use_mmap : {true, false}) {
          serving::MapOptions map_options;
          map_options.use_mmap = use_mmap;
          auto mapped =
              serving::MappedArtifact::Open(manifests[i], map_options);
          ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
          EXPECT_EQ((*mapped)->mmap_backed(), use_mmap);
          auto engine = serving::ServingEngine::FromMapped(*mapped);
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          EXPECT_EQ(engine->shard_count(), (*mapped)->shard_count());
          EXPECT_EQ(ServeTwice(&*engine, mechanism), reference)
              << mechanism << " K=" << shard_counts[i]
              << " mmap=" << use_mmap << " threads=" << threads;
        }
      }
    }
  }
}

// Two builds with identical options must shard into identical bytes at any
// thread count — manifest and every shard file are reproducible products.
TEST_F(ShardedArtifactTest, ShardedBytesDeterministicAcrossThreadCounts) {
  constexpr int64_t kShards = 3;
  std::vector<std::string> first;  // manifest bytes + each shard's bytes
  for (int64_t threads : {int64_t{1}, int64_t{2}, HardwareThreads()}) {
    ScopedThreadCount scoped(threads);
    serving::ArtifactModel model = BuildFullModel();
    // Same file NAME in per-thread-count directories: the manifest's shard
    // table embeds the relative shard file names, which must not vary.
    const fs::path sub = dir_ / ("t" + std::to_string(threads));
    fs::create_directories(sub);
    const std::string path = (sub / "det.pvram").string();
    ASSERT_TRUE(
        serving::SaveShardedArtifact(model, path, {.shards = kShards}).ok());

    std::vector<std::string> files;
    files.push_back(ReadAllBytes(path));
    for (const std::string& shard : ShardPaths(path)) {
      files.push_back(ReadAllBytes(shard));
    }
    for (const std::string& bytes : files) ASSERT_FALSE(bytes.empty());
    if (first.empty()) {
      first = files;
    } else {
      ASSERT_EQ(files.size(), first.size()) << "threads=" << threads;
      for (size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(files[i], first[i])
            << "file " << i << " threads=" << threads;
      }
    }
  }
}

// A shard must own whole clusters, so absurd K clamps to the cluster count
// and still serves the same bytes.
TEST_F(ShardedArtifactTest, ShardCountClampsToClusterCount) {
  serving::ArtifactModel model = BuildFullModel();
  const int64_t num_clusters =
      static_cast<int64_t>(model.partition.sizes.size());

  const std::string path = Path("clamped.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, path, {.shards = 1000}).ok());
  auto mapped = serving::MappedArtifact::Open(path, {});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GE((*mapped)->shard_count(), 1u);
  EXPECT_LE((*mapped)->shard_count(),
            static_cast<uint32_t>(std::max<int64_t>(num_clusters, 1)));

  std::vector<std::vector<RecommendationList>> reference;
  {
    auto engine = serving::ServingEngine::FromModel(std::move(model));
    ASSERT_TRUE(engine.ok());
    reference = ServeTwice(&*engine, "Cluster");
  }
  auto engine = serving::ServingEngine::FromMapped(*mapped);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(ServeTwice(&*engine, "Cluster"), reference);
}

// Load() reads the header before trusting anything: a manifest loads, a
// raw shard file is refused with instructions, foreign bytes are a parse
// error, a missing path is kNotFound, and a format version this reader
// does not know (bumped in the manifest or in a shard) is
// kVersionMismatch.
TEST_F(ShardedArtifactTest, LoadSniffsMagicAndRefusesRawShardFiles) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("m.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  auto sharded = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->shard_count(), 2u);

  const std::vector<std::string> shards = ShardPaths(manifest);
  ASSERT_EQ(shards.size(), 2u);
  auto shard = serving::ServingEngine::Load(shards[0]);
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kInvalidArgument)
      << shard.status().ToString();

  const std::string noise = Path("noise.pvram");
  WriteAllBytes(noise, "definitely not a model artifact");
  EXPECT_EQ(serving::ServingEngine::Load(noise).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(serving::ServingEngine::Load(Path("missing.pvram")).status().code(),
            StatusCode::kNotFound);

  // The version field is the u32 after the magic.
  for (const std::string& file : {manifest, shards[1]}) {
    const std::string bytes = ReadAllBytes(file);
    std::string bumped = bytes;
    bumped[4] = static_cast<char>(bumped[4] + 1);
    WriteAllBytes(file, bumped);
    auto engine = serving::ServingEngine::Load(manifest);
    ASSERT_FALSE(engine.ok()) << file;
    EXPECT_EQ(engine.status().code(), StatusCode::kVersionMismatch)
        << engine.status().ToString();
    WriteAllBytes(file, bytes);
  }
  EXPECT_TRUE(serving::ServingEngine::Load(manifest).ok());
}

// PRIVREC_NO_MMAP flips the default map mode without changing a byte of
// the served output (the bit-identity matrix covers the byte part).
TEST_F(ShardedArtifactTest, EnvVarSelectsReadFallback) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("env.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  setenv("PRIVREC_NO_MMAP", "1", 1);
  auto fallback = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE(fallback->mmap_backed());

  unsetenv("PRIVREC_NO_MMAP");
  auto mapped = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mmap_backed());
}

// The read-fallback open retries transient failures (EINTR-shaped errors,
// short reads from a cold or networked filesystem) instead of failing the
// swap, and the recovered bytes serve bit-identically to the mmap route.
TEST_F(ShardedArtifactTest, FallbackReadRetriesTransientFaultsBitIdentically) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("retry.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  std::vector<std::vector<RecommendationList>> reference;
  {
    auto mapped = serving::MappedArtifact::Open(manifest, {});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    ASSERT_TRUE(engine.ok());
    reference = ServeTwice(&*engine, "Cluster");
  }

  auto& injector = fault::FaultInjector::Instance();
  obs::Counter& retries =
      obs::GetCounter("privrec.artifact.fallback_read_retries");

  // Transient I/O errors: three failed laps, well inside the 64-retry
  // budget, then the reads go through.
  const int64_t retries_before = retries.value();
  injector.Arm("artifact.fallback_read", {fault::FaultKind::kIoError, 1, 3});
  {
    serving::MapOptions map_options;
    map_options.use_mmap = false;
    auto mapped = serving::MappedArtifact::Open(manifest, map_options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_FALSE((*mapped)->mmap_backed());
    EXPECT_GE(injector.HitCount("artifact.fallback_read"), 3);
    EXPECT_GE(retries.value() - retries_before, 3);
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(ServeTwice(&*engine, "Cluster"), reference);
  }
  injector.Reset();

  // Short reads: the loop crawls one byte per lap for a stretch and must
  // still assemble the exact file.
  injector.Arm("artifact.fallback_read",
               {fault::FaultKind::kShortRead, 1, 200});
  {
    serving::MapOptions map_options;
    map_options.use_mmap = false;
    auto mapped = serving::MappedArtifact::Open(manifest, map_options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(ServeTwice(&*engine, "Cluster"), reference);
  }
  injector.Reset();
}

// A filesystem that fails EVERY read must exhaust the bounded budget and
// fail the open closed — never spin forever, never serve a partial buffer.
TEST_F(ShardedArtifactTest, FallbackReadRetryBudgetIsBounded) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("exhaust.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  auto& injector = fault::FaultInjector::Instance();
  injector.Arm("artifact.fallback_read",
               {fault::FaultKind::kIoError});  // count defaults to forever
  serving::MapOptions map_options;
  map_options.use_mmap = false;
  auto mapped = serving::MappedArtifact::Open(manifest, map_options);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
  EXPECT_NE(mapped.status().ToString().find("after 64 retries"),
            std::string::npos)
      << mapped.status().ToString();
  injector.Reset();

  // Nothing was damaged: with the fault disarmed the same open succeeds.
  auto recovered = serving::MappedArtifact::Open(manifest, map_options);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// ------------------------------------------------- corruption, fail-closed
//
// Every damage class gets its OWN status code so an operator can tell
// "re-copy the file" (kDataLoss) from "wrong file entirely"
// (kGraphMismatch / kProvenanceMismatch) from "regenerate the shard set"
// (kFailedPrecondition / kNotFound) without reading logs.

class ShardedCorruptionTest : public ShardedArtifactTest {
 protected:
  // Saves a 2-shard artifact and returns the manifest path.
  std::string SaveSharded(const std::string& name, uint64_t seed = kSeed) {
    serving::ArtifactModel model = BuildFullModel(seed);
    const std::string path = Path(name);
    EXPECT_TRUE(
        serving::SaveShardedArtifact(model, path, {.shards = 2}).ok());
    return path;
  }

  static StatusCode OpenCode(const std::string& manifest) {
    auto mapped = serving::MappedArtifact::Open(manifest, {});
    if (mapped.ok()) return StatusCode::kOk;
    return mapped.status().code();
  }

};

TEST_F(ShardedCorruptionTest, TruncatedManifestIsParseError) {
  const std::string manifest = SaveSharded("t.pvram");
  const std::string bytes = ReadAllBytes(manifest);
  for (size_t keep : {bytes.size() / 2, size_t{40}, size_t{3}}) {
    WriteAllBytes(manifest, bytes.substr(0, keep));
    EXPECT_EQ(OpenCode(manifest), StatusCode::kParseError) << keep;
  }
}

TEST_F(ShardedCorruptionTest, BitFlippedManifestPayloadIsDataLoss) {
  const std::string manifest = SaveSharded("mflip.pvram");
  FlipPayloadBit(manifest, serving::kManifestMagic,
                 static_cast<uint32_t>(
                     serving::ManifestSectionId::kClusterOf));
  EXPECT_EQ(OpenCode(manifest), StatusCode::kDataLoss);
}

TEST_F(ShardedCorruptionTest, BitFlippedShardPayloadIsDataLoss) {
  // Damage each payload class separately: the noisy rows, the shard
  // header blob, and a byte of the frame's section table.
  for (auto section : {serving::ShardSectionId::kNoisyRows,
                       serving::ShardSectionId::kShardHeader}) {
    const std::string manifest =
        SaveSharded("sflip" + std::to_string(static_cast<int>(section)) +
                    ".pvram");
    FlipPayloadBit(ShardPaths(manifest)[1], serving::kShardMagic,
                   static_cast<uint32_t>(section));
    EXPECT_EQ(OpenCode(manifest), StatusCode::kDataLoss)
        << "section " << static_cast<int>(section);
  }
  const std::string manifest = SaveSharded("sframe.pvram");
  const std::string shard = ShardPaths(manifest)[0];
  std::string bytes = ReadAllBytes(shard);
  bytes[16 + 24] ^= 0x01;  // first table entry's crc32 field
  WriteAllBytes(shard, bytes);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kDataLoss);
}

TEST_F(ShardedCorruptionTest, MissingShardFileIsNotFound) {
  const std::string manifest = SaveSharded("gone.pvram");
  fs::remove(ShardPaths(manifest)[1]);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kNotFound);
}

TEST_F(ShardedCorruptionTest, ResizedShardIsFailedPrecondition) {
  // Extra bytes (a concatenation accident, a foreign shard of another
  // size) or missing ones (a truncated copy): the manifest records each
  // shard's exact byte size.
  const std::string manifest = SaveSharded("fat.pvram");
  const std::string shard = ShardPaths(manifest)[0];
  const std::string bytes = ReadAllBytes(shard);
  WriteAllBytes(shard, bytes + std::string(64, '\0'));
  EXPECT_EQ(OpenCode(manifest), StatusCode::kFailedPrecondition);
  for (size_t keep : {bytes.size() / 2, size_t{40}, size_t{3}}) {
    WriteAllBytes(shard, bytes.substr(0, keep));
    EXPECT_EQ(OpenCode(manifest), StatusCode::kFailedPrecondition) << keep;
  }
}

TEST_F(ShardedCorruptionTest, ForeignDatasetShardIsGraphMismatch) {
  // Same build, same geometry, different dataset fingerprint: the mixed-in
  // shard must be named a graph mismatch, not generic corruption. The
  // foreign twin is byte-compatible (only the fingerprint differs), so
  // only the identity gate can catch it.
  serving::ArtifactModel model = BuildFullModel();
  serving::ArtifactModel foreign = model;
  foreign.meta.graph_hash ^= 1;

  const std::string manifest = Path("a.pvram");
  const std::string other = Path("b.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());
  ASSERT_TRUE(
      serving::SaveShardedArtifact(foreign, other, {.shards = 2}).ok());
  fs::copy_file(ShardPaths(other)[0], ShardPaths(manifest)[0],
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kGraphMismatch);
}

TEST_F(ShardedCorruptionTest, CrossBuildShardIsProvenanceMismatch) {
  // Same dataset, different DP seed: identical sizes, different noise.
  // Serving mixed noise would silently break the ε accounting, so the
  // artifact token must reject the splice with its own code.
  const std::string manifest = SaveSharded("build_a.pvram", kSeed);
  const std::string other = SaveSharded("build_b.pvram", kSeed + 1);
  fs::copy_file(ShardPaths(other)[1], ShardPaths(manifest)[1],
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kProvenanceMismatch);
}

TEST_F(ShardedCorruptionTest, ShardIndexMixupFailsClosed) {
  // Shard 1 copied over shard 0 of the SAME build: caught by the size
  // gate or the header-vs-table gate, both kFailedPrecondition.
  const std::string manifest = SaveSharded("swap.pvram");
  const std::vector<std::string> shards = ShardPaths(manifest);
  fs::copy_file(shards[1], shards[0], fs::copy_options::overwrite_existing);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kFailedPrecondition);
}

TEST_F(ShardedCorruptionTest, ArmedFaultPointsFailClosed) {
  const std::string manifest = SaveSharded("faults.pvram");
  auto& injector = fault::FaultInjector::Instance();

  injector.Arm("artifact.open", {fault::FaultKind::kIoError, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kIoError);
  injector.Reset();

  injector.Arm("artifact.read", {fault::FaultKind::kIoError, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kIoError);
  injector.Reset();

  // A short read truncates the manifest view mid-frame.
  injector.Arm("artifact.read", {fault::FaultKind::kShortRead, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kParseError);
  injector.Reset();

  injector.Arm("shard.read", {fault::FaultKind::kIoError, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kIoError);
  injector.Reset();

  // Latency stalls the read but nothing is damaged: the open succeeds.
  injector.Arm("artifact.read", {fault::FaultKind::kLatency, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kOk);
  injector.Reset();

  // The save side: a failed open or write is an I/O error that leaves no
  // temp file behind, and the artifact on disk still opens.
  serving::ArtifactModel model = BuildFullModel(kSeed + 1);
  for (const char* point : {"artifact.open", "artifact.write"}) {
    injector.Arm(point, {fault::FaultKind::kIoError, 1, 1});
    EXPECT_EQ(
        serving::SaveShardedArtifact(model, manifest, {.shards = 2}).code(),
        StatusCode::kIoError)
        << point;
    injector.Reset();
    for (const auto& entry : fs::directory_iterator(dir_)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
    EXPECT_EQ(OpenCode(manifest), StatusCode::kOk) << point;
  }
}

// ---------------------------------------- untrusted-header overflow class
//
// Regression for the bug class fixed alongside this layout: a count read
// from an untrusted header, multiplied in size_t, can wrap back to the
// byte size the file actually has — and size a vector smaller than the
// loop that fills it. Validation must divide, never multiply.

TEST_F(ShardedArtifactTest, FromModelRejectsHugeNoisyGeometry) {
  serving::ArtifactModel model = BuildFullModel();
  // An item count near 2^62 makes nc * ni wrap in size_t; for cluster
  // counts divisible by 4 the product lands exactly on values.size() and
  // a product-form check accepts a table 2^55x too small for its header.
  model.meta.num_items = (int64_t{1} << 62) + 80;

  auto engine = serving::ServingEngine::FromModel(std::move(model));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
      << engine.status().ToString();
}

TEST_F(ShardedArtifactTest, FromModelRejectsWrappingLowRankRank) {
  serving::ArtifactModel model = BuildFullModel();
  ASSERT_TRUE(model.has_lowrank);
  const size_t nu = static_cast<size_t>(model.meta.num_users);  // 120
  const size_t b = model.lowrank.b.size();                      // nu * 16
  ASSERT_EQ(b, nu * 16);
  // nu * rank == 15 * 2^64 + b == b (mod 2^64): the product check wraps
  // clean, the division check does not.
  model.lowrank.rank = (int64_t{1} << 61) + 16;
  ASSERT_EQ(nu * static_cast<size_t>(model.lowrank.rank), b);

  auto engine = serving::ServingEngine::FromModel(std::move(model));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
      << engine.status().ToString();
}

TEST_F(ShardedArtifactTest, OversizedSectionTableEntryIsParseError) {
  // A table entry claiming more bytes than the file has must be rejected
  // at parse time — including sizes chosen so offset + size wraps.
  std::string bytes = serving::EncodeAlignedContainer(
      serving::kShardMagic, serving::kShardFormatVersion,
      {{/*id=*/2, std::string(64, 'x')}});
  ASSERT_GT(bytes.size(), 40u);
  for (uint64_t huge :
       {uint64_t{1} << 60, UINT64_MAX - 32, UINT64_MAX}) {
    std::string tampered = bytes;
    std::memcpy(&tampered[16 + 16], &huge, sizeof(huge));  // entry 0's size
    auto view = serving::ParseAlignedContainer(
        tampered.data(), tampered.size(), serving::kShardMagic,
        serving::kShardFormatVersion, "tampered");
    ASSERT_FALSE(view.ok()) << huge;
    EXPECT_EQ(view.status().code(), StatusCode::kParseError) << huge;
  }
}

// ------------------------------------------------- serving the shards

// ServeRuntime::Handle over a K=3 .pvram serves the lists it serves over
// K=1, and its wide event and statusz page report the three shards and
// who owns which users.
TEST_F(ShardedArtifactTest, RuntimeServesShardedLikeMonolithic) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string single = Path("route_k1.pvram");
  const std::string manifest = Path("route.pvram");
  ASSERT_TRUE(serving::SaveShardedArtifact(model, single).ok());
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 3}).ok());

  serve::ServeRuntimeOptions options;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = kEps;
  serve::ServeRuntime plain(options);
  ASSERT_TRUE(plain.Activate(single).ok());

  serve::ServeTelemetryOptions tel_options;
  tel_options.sample_every = 1;
  serve::ServeTelemetry telemetry(tel_options);
  options.telemetry = &telemetry;
  serve::ServeRuntime sharded(options);
  ASSERT_TRUE(sharded.Activate(manifest).ok());

  serve::ServeRequest request;
  request.users = users_;
  request.top_n = kTopN;
  serve::ServeResponse want = plain.Handle(request);
  serve::ServeResponse got = sharded.Handle(request);
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.batch.lists, want.batch.lists);
  EXPECT_EQ(got.batch.report.users_degraded,
            want.batch.report.users_degraded);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.artifact_seed, want.artifact_seed);

  std::vector<obs::RequestTelemetry> events = telemetry.sampled_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].outcome, obs::RequestOutcome::kOk);
  EXPECT_EQ(events[0].shard_count, 3);
  EXPECT_NE(telemetry.EventsJsonl().find("\"shard_count\": 3"),
            std::string::npos);

  serve::RuntimeIntrospection status = sharded.Introspect();
  EXPECT_EQ(status.shard_count, 3);
  ASSERT_EQ(status.shard_users.size(), 3u);
  int64_t owned = 0;
  for (int64_t n : status.shard_users) {
    EXPECT_GT(n, 0);  // all 120 users: every shard owns a slice
    owned += n;
  }
  EXPECT_EQ(owned, status.num_users);
  ASSERT_TRUE(status.has_telemetry);
  EXPECT_EQ(status.telemetry_recorded, 1);
  const std::string text = serve::StatuszText(status);
  EXPECT_NE(text.find("3 shard(s)"), std::string::npos);
  EXPECT_NE(text.find("shard map:  s0=" +
                      std::to_string(status.shard_users[0]) + " s1="),
            std::string::npos);
  EXPECT_NE(serve::StatuszJson(status).find("\"shard_count\": 3"),
            std::string::npos);
}

}  // namespace
}  // namespace privrec
