// P1: google-benchmark microbenchmarks for the performance-critical
// building blocks: noise sampling, similarity rows, Louvain, the noisy
// cluster averages (module A_w) and end-to-end private recommendation —
// plus serial-vs-parallel timings of the hot paths that run on the
// deterministic parallel layer (the */threads:N benchmarks).
//
// Reproducibility: the custom main stamps thread count, chunking rule,
// library version and git revision into the benchmark context, so JSON
// output (--benchmark_out=BENCH_parallel.json --benchmark_out_format=json)
// is comparable across PRs. A --threads=N flag (default: hardware
// concurrency / PRIVREC_THREADS) sets the default thread count; the
// */threads:N benchmarks override it per run. Thread count never changes
// results — only wall-clock.
//
// The BM_Artifact* group times the two-phase pipeline's hot paths (save,
// load, serve-side reconstruction); capture them with
// --benchmark_filter=Artifact --benchmark_out=BENCH_artifact.json
// --benchmark_out_format=json. The artifact is a K = 1 .pvram (manifest
// plus one shard file); the context block carries its on-disk byte size
// (artifact_bytes, both files) next to git_revision, so size and latency
// regressions are visible in the same record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "artifact/builder.h"
#include "artifact/mapped.h"
#include "artifact/serving.h"
#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/version.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "community/louvain.h"
#include "core/cluster_publisher.h"
#include "core/exact_recommender.h"
#include "data/synthetic.h"
#include "graph/generators/planted_partition.h"
#include "core/item_cf_recommender.h"
#include "community/kmeans.h"
#include "eval/exact_reference.h"
#include "kernels/accumulate.h"
#include "kernels/dispatch.h"
#include "kernels/select.h"
#include "serve/clock.h"
#include "serve/runtime.h"
#include "serve/telemetry.h"
#include "similarity/adamic_adar.h"
#include "similarity/common_neighbors.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"
#include "similarity/personalized_pagerank.h"
#include "similarity/workload.h"

namespace privrec {
namespace {

void BM_LaplaceSampling(benchmark::State& state) {
  Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng.Laplace(1.0);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_LaplaceSampling);

void BM_ZipfSampling(benchmark::State& state) {
  Rng rng(2);
  uint64_t acc = 0;
  for (auto _ : state) {
    acc += rng.Zipf(100000, 1.05);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ZipfSampling);

const data::Dataset& SharedDataset() {
  static const data::Dataset& dataset =
      *new data::Dataset(data::MakeTinyDataset(1000, 2000, 3));
  return dataset;
}

template <typename Measure>
void BM_SimilarityRow(benchmark::State& state) {
  const data::Dataset& dataset = SharedDataset();
  Measure measure;
  similarity::DenseScratch scratch;
  graph::NodeId u = 0;
  for (auto _ : state) {
    auto row = measure.Row(dataset.social, u, &scratch);
    benchmark::DoNotOptimize(row.data());
    u = (u + 1) % dataset.social.num_nodes();
  }
}
BENCHMARK_TEMPLATE(BM_SimilarityRow, similarity::CommonNeighbors);
BENCHMARK_TEMPLATE(BM_SimilarityRow, similarity::AdamicAdar);
BENCHMARK_TEMPLATE(BM_SimilarityRow, similarity::GraphDistance);
BENCHMARK_TEMPLATE(BM_SimilarityRow, similarity::Katz);
BENCHMARK_TEMPLATE(BM_SimilarityRow, similarity::PersonalizedPageRank);

void BM_WorkloadCompute(benchmark::State& state) {
  const data::Dataset& dataset = SharedDataset();
  similarity::CommonNeighbors measure;
  for (auto _ : state) {
    auto workload =
        similarity::SimilarityWorkload::Compute(dataset.social, measure);
    benchmark::DoNotOptimize(workload.TotalEntries());
  }
}
BENCHMARK(BM_WorkloadCompute);

// Serial-vs-parallel: the same materialization at a pinned thread count.
// Outputs are bit-identical across the Arg values; only time may differ.
void BM_WorkloadComputeThreads(benchmark::State& state) {
  const data::Dataset& dataset = SharedDataset();
  similarity::CommonNeighbors measure;
  ScopedThreadCount scoped(state.range(0));
  for (auto _ : state) {
    auto workload =
        similarity::SimilarityWorkload::Compute(dataset.social, measure);
    benchmark::DoNotOptimize(workload.TotalEntries());
  }
}
BENCHMARK(BM_WorkloadComputeThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// The heavier Katz workload, where per-row cost dominates chunk overhead.
void BM_WorkloadComputeKatzThreads(benchmark::State& state) {
  const data::Dataset& dataset = SharedDataset();
  similarity::Katz measure(3, 0.05);
  ScopedThreadCount scoped(state.range(0));
  for (auto _ : state) {
    auto workload =
        similarity::SimilarityWorkload::Compute(dataset.social, measure);
    benchmark::DoNotOptimize(workload.TotalEntries());
  }
}
BENCHMARK(BM_WorkloadComputeKatzThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_Louvain(benchmark::State& state) {
  graph::PlantedPartitionOptions opt;
  opt.num_nodes = state.range(0);
  opt.num_communities = 16;
  opt.mean_degree = 14.0;
  opt.seed = 4;
  auto planted = graph::GeneratePlantedPartition(opt);
  for (auto _ : state) {
    auto result =
        community::RunLouvain(planted.graph, {.restarts = 1, .seed = 5});
    benchmark::DoNotOptimize(result.modularity);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Louvain)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity();

struct RecommenderFixture {
  RecommenderFixture()
      : dataset(SharedDataset()),
        workload(similarity::SimilarityWorkload::Compute(
            dataset.social, similarity::CommonNeighbors())),
        context{&dataset.social, &dataset.preferences, &workload},
        louvain(community::RunLouvain(dataset.social,
                                      {.restarts = 2, .seed = 6})) {}

  const data::Dataset& dataset;
  similarity::SimilarityWorkload workload;
  core::RecommenderContext context;
  community::LouvainResult louvain;
};

RecommenderFixture& SharedFixture() {
  static RecommenderFixture& fixture = *new RecommenderFixture();
  return fixture;
}

void BM_NoisyClusterAverages(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  core::ClusterPublisher publisher(f.context, f.louvain.partition,
                                   {.epsilon = 0.1, .seed = 7});
  for (auto _ : state) {
    auto averages = publisher.ComputeNoisyClusterAverages();
    benchmark::DoNotOptimize(averages.data());
  }
}
BENCHMARK(BM_NoisyClusterAverages);

void BM_NoisyClusterAveragesThreads(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  core::ClusterPublisher publisher(f.context, f.louvain.partition,
                                   {.epsilon = 0.1, .seed = 7});
  ScopedThreadCount scoped(state.range(0));
  for (auto _ : state) {
    auto averages = publisher.ComputeNoisyClusterAverages();
    benchmark::DoNotOptimize(averages.data());
  }
}
BENCHMARK(BM_NoisyClusterAveragesThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_ClusterRecommendPerUser(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  auto rec = bench::MakeCluster(f.context, f.louvain.partition, 0.1, 8);
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  for (auto _ : state) {
    auto lists = rec->Recommend(users, 50);
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_ClusterRecommendPerUser);

void BM_ClusterRecommendThreads(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  auto rec = bench::MakeCluster(f.context, f.louvain.partition, 0.1, 8);
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  ScopedThreadCount scoped(state.range(0));
  for (auto _ : state) {
    auto lists = rec->Recommend(users, 50);
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_ClusterRecommendThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_ItemCfRecommendPerUser(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  core::ItemCfRecommender rec(f.context,
                              {.epsilon = 0.5, .tau = 20, .seed = 9});
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 50; ++u) users.push_back(u);
  for (auto _ : state) {
    auto lists = rec.Recommend(users, 50);
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_ItemCfRecommendPerUser);

void BM_NdcgEvaluation(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  eval::ExactReference ref =
      eval::ExactReference::Compute(f.context, users, 50);
  auto lists = bench::MakeCluster(f.context, f.louvain.partition, 0.5, 10)
                   ->Recommend(users, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.MeanNdcg(lists));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_NdcgEvaluation);

void BM_NdcgEvaluationThreads(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  eval::ExactReference ref =
      eval::ExactReference::Compute(f.context, users, 50);
  auto lists = bench::MakeCluster(f.context, f.louvain.partition, 0.5, 10)
                   ->Recommend(users, 50);
  ScopedThreadCount scoped(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.MeanNdcg(lists));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_NdcgEvaluationThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_TopNAccumulator(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> utilities(10000);
  for (double& u : utilities) u = rng.Normal();
  for (auto _ : state) {
    core::TopNAccumulator acc(50);
    for (size_t i = 0; i < utilities.size(); ++i) {
      acc.Offer(static_cast<graph::ItemId>(i), utilities[i]);
    }
    auto list = acc.Take();
    benchmark::DoNotOptimize(list.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(utilities.size()));
}
BENCHMARK(BM_TopNAccumulator);

void BM_SpectralKMeans(benchmark::State& state) {
  const data::Dataset& dataset = SharedDataset();
  for (auto _ : state) {
    auto partition = community::SpectralKMeans(dataset.social, 8, 12);
    benchmark::DoNotOptimize(partition.num_clusters());
  }
}
BENCHMARK(BM_SpectralKMeans);

// --- Two-phase pipeline: save / load / serve on the shared dataset. ---

struct ArtifactFixture {
  ArtifactFixture() {
    RecommenderFixture& f = SharedFixture();
    artifact::ModelArtifactBuilder builder(&f.dataset.social,
                                           &f.dataset.preferences);
    builder.SetPartition(&f.louvain.partition);
    builder.SetWorkload(&f.workload);
    artifact::BuildOptions options;
    options.epsilon = 0.1;
    options.seed = 12;
    options.include_reference_sections = false;
    auto built = builder.Build(options);
    PRIVREC_CHECK_MSG(built.ok(), "artifact build failed");
    model = std::move(*built);
    path = (std::filesystem::temp_directory_path() /
            "privrec_bench_model.pvram")
               .string();
    Status saved = serving::SaveShardedArtifact(model, path);
    PRIVREC_CHECK_MSG(saved.ok(), "artifact save failed");
    auto mapped = serving::MappedArtifact::Open(path, {});
    PRIVREC_CHECK_MSG(mapped.ok(), "artifact open failed");
    bytes = static_cast<int64_t>((*mapped)->total_bytes());
  }

  serving::ArtifactModel model;
  std::string path;
  int64_t bytes = 0;
};

ArtifactFixture& SharedArtifactFixture() {
  static ArtifactFixture& fixture = *new ArtifactFixture();
  return fixture;
}

void BM_ArtifactSave(benchmark::State& state) {
  ArtifactFixture& f = SharedArtifactFixture();
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "privrec_bench_model_save.pvram").string();
  for (auto _ : state) {
    Status saved = serving::SaveShardedArtifact(f.model, path);
    benchmark::DoNotOptimize(saved.ok());
  }
  if (auto mapped = serving::MappedArtifact::Open(path, {}); mapped.ok()) {
    for (const serving::ShardTableEntry& e : (*mapped)->shard_table()) {
      std::filesystem::remove(dir / e.file);
    }
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() * f.bytes);
}
BENCHMARK(BM_ArtifactSave);

void BM_ArtifactLoad(benchmark::State& state) {
  ArtifactFixture& f = SharedArtifactFixture();
  for (auto _ : state) {
    auto engine = serving::ServingEngine::Load(f.path);
    benchmark::DoNotOptimize(engine.ok());
  }
  state.SetBytesProcessed(state.iterations() * f.bytes);
}
BENCHMARK(BM_ArtifactLoad);

// Top-N reconstruction from the loaded artifact — the serve half of
// BM_ClusterRecommendPerUser (same users, same N), which also builds a
// fresh release on every call.
void BM_ArtifactClusterServe(benchmark::State& state) {
  ArtifactFixture& f = SharedArtifactFixture();
  auto engine = serving::ServingEngine::Load(f.path);
  PRIVREC_CHECK_MSG(engine.ok(), "artifact load failed");
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = 0.1;
  auto server = serving::MakeServeRecommender(&*engine, spec);
  PRIVREC_CHECK_MSG(server.ok(), "serve recommender rejected");
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  for (auto _ : state) {
    auto batch = (*server)->Recommend(users, 50);
    benchmark::DoNotOptimize(batch.lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_ArtifactClusterServe);

void BM_ArtifactClusterServeThreads(benchmark::State& state) {
  ArtifactFixture& f = SharedArtifactFixture();
  auto engine = serving::ServingEngine::Load(f.path);
  PRIVREC_CHECK_MSG(engine.ok(), "artifact load failed");
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = 0.1;
  auto server = serving::MakeServeRecommender(&*engine, spec);
  PRIVREC_CHECK_MSG(server.ok(), "serve recommender rejected");
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  ScopedThreadCount scoped(state.range(0));
  for (auto _ : state) {
    auto batch = (*server)->Recommend(users, 50);
    benchmark::DoNotOptimize(batch.lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_ArtifactClusterServeThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// --- Serving-runtime hot path: Handle() with and without the telemetry
// sink, the pair behind ci/obs_overhead.sh's serve gate. A ManualClock
// pins time so both variants do identical clock work and no deadline can
// expire mid-run; the delta is exactly the wide-event fill + sink fold.
void RunServeHandleBench(benchmark::State& state, bool with_telemetry) {
  ArtifactFixture& f = SharedArtifactFixture();
  serve::ManualClock clock;
  serve::ServeTelemetry telemetry;
  serve::ServeRuntimeOptions options;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = 0.1;
  options.clock = &clock;
  if (with_telemetry) options.telemetry = &telemetry;
  serve::ServeRuntime runtime(options);
  Status activated = runtime.Activate(f.path);
  PRIVREC_CHECK_MSG(activated.ok(), "serve activate failed");
  serve::ServeRequest request;
  for (graph::NodeId u = 0; u < 8; ++u) request.users.push_back(u);
  request.top_n = 20;
  request.deadline_ms = 1000000;
  for (auto _ : state) {
    serve::ServeResponse response = runtime.Handle(request);
    benchmark::DoNotOptimize(response.batch.lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(request.users.size()));
}

void BM_ServeHandle(benchmark::State& state) {
  RunServeHandleBench(state, /*with_telemetry=*/false);
}
BENCHMARK(BM_ServeHandle);

void BM_ServeHandleTelemetry(benchmark::State& state) {
  RunServeHandleBench(state, /*with_telemetry=*/true);
}
BENCHMARK(BM_ServeHandleTelemetry);

// --- Reconstruction kernels (src/kernels/): the dispatched SIMD paths
// against their scalar references. Shape mirrors a hot reconstruction
// call: a few dozen touched cluster rows over a few thousand items. The
// scalar reference is compiled with auto-vectorization off, so the
// Simd/Scalar ratio measures the hand-written lanes; ci/perf_gate.sh
// asserts the ratio (>= 2x on AVX2 hosts) from BENCH_kernels.json,
// keyed on the kernel_dispatch context below.

constexpr int64_t kKernelRows = 32;
constexpr int64_t kKernelItems = 4096;

struct KernelFixture {
  KernelFixture() {
    Rng rng(21);
    storage.resize(kKernelRows);
    storage_f32.resize(kKernelRows);
    for (int64_t k = 0; k < kKernelRows; ++k) {
      auto& row = storage[static_cast<size_t>(k)];
      row.resize(kKernelItems);
      for (double& v : row) v = rng.Normal();
      storage_f32[static_cast<size_t>(k)].assign(row.begin(), row.end());
      rows.push_back(row.data());
      rows_f32.push_back(storage_f32[static_cast<size_t>(k)].data());
      scales.push_back(rng.Normal());
    }
    out.resize(kKernelItems);
  }

  std::vector<std::vector<double>> storage;
  std::vector<std::vector<float>> storage_f32;
  std::vector<const double*> rows;
  std::vector<const float*> rows_f32;
  std::vector<double> scales;
  std::vector<double> out;
};

KernelFixture& SharedKernelFixture() {
  static KernelFixture& fixture = *new KernelFixture();
  return fixture;
}

void BM_KernelAccumulateScalar(benchmark::State& state) {
  KernelFixture& f = SharedKernelFixture();
  for (auto _ : state) {
    std::fill(f.out.begin(), f.out.end(), 0.0);
    kernels::AccumulateRowsScalar(f.rows.data(), f.scales.data(),
                                  kKernelRows, kKernelItems, f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetBytesProcessed(state.iterations() * kKernelRows * kKernelItems *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_KernelAccumulateScalar);

void BM_KernelAccumulateSimd(benchmark::State& state) {
  KernelFixture& f = SharedKernelFixture();
  for (auto _ : state) {
    std::fill(f.out.begin(), f.out.end(), 0.0);
    kernels::AccumulateRows(f.rows.data(), f.scales.data(), kKernelRows,
                            kKernelItems, f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetBytesProcessed(state.iterations() * kKernelRows * kKernelItems *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_KernelAccumulateSimd);

void BM_KernelAccumulateF32Scalar(benchmark::State& state) {
  KernelFixture& f = SharedKernelFixture();
  for (auto _ : state) {
    std::fill(f.out.begin(), f.out.end(), 0.0);
    kernels::AccumulateRowsF32Scalar(f.rows_f32.data(), f.scales.data(),
                                     kKernelRows, kKernelItems,
                                     f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetBytesProcessed(state.iterations() * kKernelRows * kKernelItems *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_KernelAccumulateF32Scalar);

void BM_KernelAccumulateF32Simd(benchmark::State& state) {
  KernelFixture& f = SharedKernelFixture();
  for (auto _ : state) {
    std::fill(f.out.begin(), f.out.end(), 0.0);
    kernels::AccumulateRowsF32(f.rows_f32.data(), f.scales.data(),
                               kKernelRows, kKernelItems, f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetBytesProcessed(state.iterations() * kKernelRows * kKernelItems *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_KernelAccumulateF32Simd);

// SumBlock at the serving shape: one kSumBlockMaxItems-item block of 33
// rows (the touched clusters of a perfbench user), the call the pruned
// reconstruction makes per visited block, over f64 rows and over f32
// ones (the f32 mirror's item sums, and every visit's line bounds).
// Successive iterations step through the rows' blocks.

constexpr int64_t kSumBlockRows = 33;

struct SumBlockFixture {
  SumBlockFixture() {
    Rng rng(23);
    storage.resize(kSumBlockRows);
    storage_f32.resize(kSumBlockRows);
    for (int64_t k = 0; k < kSumBlockRows; ++k) {
      std::vector<double>& row = storage[static_cast<size_t>(k)];
      row.resize(kKernelItems);
      for (double& v : row) v = rng.Normal();
      storage_f32[static_cast<size_t>(k)].assign(row.begin(), row.end());
      rows.push_back(row.data());
      rows_f32.push_back(storage_f32[static_cast<size_t>(k)].data());
      scales.push_back(std::abs(rng.Normal()));
    }
    out.resize(kernels::kSumBlockMaxItems);
  }

  std::vector<std::vector<double>> storage;
  std::vector<std::vector<float>> storage_f32;
  std::vector<const double*> rows;
  std::vector<const float*> rows_f32;
  std::vector<double> scales;
  std::vector<double> out;
};

SumBlockFixture& SharedSumBlockFixture() {
  static SumBlockFixture& fixture = *new SumBlockFixture();
  return fixture;
}

template <typename Row, typename SumFn>
void RunSumBlock(benchmark::State& state,
                 const std::vector<const Row*>& rows, SumFn sum) {
  SumBlockFixture& f = SharedSumBlockFixture();
  int64_t offset = 0;
  for (auto _ : state) {
    sum(rows.data(), offset, f.scales.data(), kSumBlockRows,
        kernels::kSumBlockMaxItems, f.out.data());
    benchmark::DoNotOptimize(f.out.data());
    benchmark::ClobberMemory();
    offset = (offset + kernels::kSumBlockMaxItems) % kKernelItems;
  }
  state.SetBytesProcessed(state.iterations() * kSumBlockRows *
                          kernels::kSumBlockMaxItems *
                          static_cast<int64_t>(sizeof(Row)));
}

void BM_KernelSumBlockScalar(benchmark::State& state) {
  RunSumBlock(state, SharedSumBlockFixture().rows, kernels::SumBlockScalar);
}
BENCHMARK(BM_KernelSumBlockScalar);

void BM_KernelSumBlockSimd(benchmark::State& state) {
  RunSumBlock(state, SharedSumBlockFixture().rows, kernels::SumBlock);
}
BENCHMARK(BM_KernelSumBlockSimd);

void BM_KernelSumBlockF32Scalar(benchmark::State& state) {
  RunSumBlock(state, SharedSumBlockFixture().rows_f32,
              kernels::SumBlockF32Scalar);
}
BENCHMARK(BM_KernelSumBlockF32Scalar);

void BM_KernelSumBlockF32Simd(benchmark::State& state) {
  RunSumBlock(state, SharedSumBlockFixture().rows_f32, kernels::SumBlockF32);
}
BENCHMARK(BM_KernelSumBlockF32Simd);

// Top-N selection: the nth_element kernel against the historical
// materialize-pairs-and-partial_sort block it replaced.

struct SelectFixture {
  SelectFixture() {
    Rng rng(22);
    values.resize(10000);
    for (double& v : values) v = rng.Normal();
  }
  std::vector<double> values;
};

SelectFixture& SharedSelectFixture() {
  static SelectFixture& fixture = *new SelectFixture();
  return fixture;
}

void BM_KernelSelectTopNBaseline(benchmark::State& state) {
  SelectFixture& f = SharedSelectFixture();
  struct Pair {
    int64_t item;
    double utility;
  };
  for (auto _ : state) {
    std::vector<Pair> pairs;
    pairs.reserve(f.values.size());
    for (size_t i = 0; i < f.values.size(); ++i) {
      pairs.push_back({static_cast<int64_t>(i), f.values[i]});
    }
    std::partial_sort(pairs.begin(), pairs.begin() + 50, pairs.end(),
                      kernels::RankOrderBetter{});
    pairs.resize(50);
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
}
BENCHMARK(BM_KernelSelectTopNBaseline);

void BM_KernelSelectTopN(benchmark::State& state) {
  SelectFixture& f = SharedSelectFixture();
  std::vector<int64_t> out;
  for (auto _ : state) {
    kernels::SelectTopNIndicesDense(
        f.values.data(), static_cast<int64_t>(f.values.size()), 50, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
}
BENCHMARK(BM_KernelSelectTopN);

void BM_ExactRecommendPerUser(benchmark::State& state) {
  RecommenderFixture& f = SharedFixture();
  core::ExactRecommender rec(f.context);
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < 200; ++u) users.push_back(u);
  for (auto _ : state) {
    auto lists = rec.Recommend(users, 50);
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(users.size()));
}
BENCHMARK(BM_ExactRecommendPerUser);

}  // namespace
}  // namespace privrec

// BENCHMARK_MAIN() plus: a --threads=N flag for the default thread count,
// and reproducibility metadata in the benchmark context so BENCH_*.json
// records are comparable across PRs and machines.
int main(int argc, char** argv) {
  int out = 1;  // argv[0] kept
  for (int in = 1; in < argc; ++in) {
    const char* kPrefix = "--threads=";
    if (std::strncmp(argv[in], kPrefix, std::strlen(kPrefix)) == 0) {
      privrec::SetGlobalThreadCount(
          std::atoll(argv[in] + std::strlen(kPrefix)));
    } else {
      argv[out++] = argv[in];
    }
  }
  argc = out;

  benchmark::AddCustomContext("privrec_version", privrec::kVersionString);
  benchmark::AddCustomContext("git_revision", privrec::kGitRevision);
  benchmark::AddCustomContext(
      "threads", std::to_string(privrec::GlobalThreadCount()));
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(privrec::HardwareThreads()));
  benchmark::AddCustomContext(
      "chunking", "fixed; target " +
                      std::to_string(privrec::kDefaultTargetChunks) +
                      " chunks (DefaultChunkSize = ceil(n/target))");
  // Resolved SIMD level for the BM_Kernel* group; ci/perf_gate.sh only
  // asserts the Simd/Scalar speedup ratio when this says "avx2".
  benchmark::AddCustomContext(
      "kernel_dispatch",
      privrec::kernels::DispatchLevelName(privrec::kernels::ActiveDispatchLevel()));
  // On-disk size of the model the BM_Artifact* group saves/loads/serves,
  // so BENCH_artifact.json records pair byte-size with latency.
  benchmark::AddCustomContext(
      "artifact_bytes",
      std::to_string(privrec::SharedArtifactFixture().bytes));

  // Warm the shared fixtures once (outside any timed region), then stamp
  // the resulting metrics snapshot into the BENCH JSON context: every
  // BENCH_*.json record carries the workload-shape counters (similarity
  // entries, Laplace draws, cluster counts) its timings were measured
  // against.
  privrec::RecommenderFixture& f = privrec::SharedFixture();
  privrec::core::ClusterPublisher warm(
      f.context, f.louvain.partition, {.epsilon = 0.1, .seed = 7});
  auto averages = warm.ComputeNoisyClusterAverages();
  benchmark::DoNotOptimize(averages.data());
  privrec::obs::MetricsSnapshot snapshot =
      privrec::obs::MetricsRegistry::Instance().Snapshot();
  for (const auto& counter : snapshot.counters) {
    benchmark::AddCustomContext("metrics." + counter.name,
                                std::to_string(counter.value));
  }
  // Benchmarks re-run these paths thousands of times; the warmup
  // snapshot above is the meaningful workload shape, so drop the warmup
  // counts from the registry rather than letting them skew any
  // post-run exports.
  privrec::obs::MetricsRegistry::Instance().ResetValues();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
