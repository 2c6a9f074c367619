// Tests for the observability layer (src/obs): registry semantics under
// concurrency, span nesting, exporter goldens, driver flag plumbing, and
// the determinism guard (metrics + tracing must never perturb
// recommendation output).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "community/louvain.h"
#include "mechanisms.h"
#include "data/synthetic.h"
#include "obs/export.h"
#include "obs/latency_recorder.h"
#include "obs/metrics.h"
#include "obs/rolling_window.h"
#include "obs/trace.h"
#include "obs/wide_event.h"
#include "similarity/common_neighbors.h"
#include "similarity/workload.h"

namespace privrec {
namespace {

// ---------------------------------------------------------------- Buckets

TEST(BucketsTest, ExponentialBuckets) {
  std::vector<double> b = obs::ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

// --------------------------------------------------------------- Registry

TEST(MetricsRegistryTest, CounterIsExactUnderConcurrency) {
  obs::Counter& counter = obs::GetCounter("privrec.test.concurrent");
  counter.ResetValue();
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (int64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  obs::Gauge& gauge = obs::GetGauge("privrec.test.gauge");
  gauge.Set(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.Add(0.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.75);
  gauge.ResetValue();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(MetricsRegistryTest, HistogramBucketing) {
  obs::Histogram& hist = obs::GetHistogram(
      "privrec.test.hist", std::vector<double>{1.0, 10.0, 100.0});
  hist.ResetValue();
  hist.Observe(0.5);    // <= 1     -> bucket 0
  hist.Observe(1.0);    // <= 1     -> bucket 0 (bounds are inclusive)
  hist.Observe(5.0);    // <= 10    -> bucket 1
  hist.Observe(100.0);  // <= 100   -> bucket 2
  hist.Observe(1e6);    // overflow -> bucket 3
  ASSERT_EQ(hist.num_buckets(), 4u);
  EXPECT_EQ(hist.bucket_count(0), 2);
  EXPECT_EQ(hist.bucket_count(1), 1);
  EXPECT_EQ(hist.bucket_count(2), 1);
  EXPECT_EQ(hist.bucket_count(3), 1);
  EXPECT_EQ(hist.count(), 5);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(MetricsRegistryTest, HistogramTotalsExactUnderConcurrency) {
  obs::Histogram& hist = obs::GetHistogram(
      "privrec.test.hist_concurrent", std::vector<double>{0.5});
  hist.ResetValue();
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist] {
      for (int64_t i = 0; i < kPerThread; ++i) hist.Observe(1.0);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(hist.sum(),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(hist.bucket_count(1), kThreads * kPerThread);  // overflow
}

TEST(MetricsRegistryTest, SameNameReturnsSameObject) {
  obs::Counter& a = obs::GetCounter("privrec.test.same");
  obs::Counter& b = obs::GetCounter("privrec.test.same");
  EXPECT_EQ(&a, &b);
  // Re-registration with different bounds returns the first histogram.
  obs::Histogram& h1 = obs::GetHistogram("privrec.test.same_hist",
                                         std::vector<double>{1.0, 2.0});
  obs::Histogram& h2 = obs::GetHistogram("privrec.test.same_hist",
                                         std::vector<double>{99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, ResetValuesKeepsRegistrations) {
  obs::Counter& counter = obs::GetCounter("privrec.test.reset");
  counter.Add(41);
  obs::MetricsRegistry::Instance().ResetValues();
  EXPECT_EQ(counter.value(), 0);
  // The cached reference is still live and still registered.
  counter.Increment();
  obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  bool found = false;
  for (const obs::CounterSample& c : snapshot.counters) {
    if (c.name == "privrec.test.reset") {
      found = true;
      EXPECT_EQ(c.value, 1);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  obs::GetCounter("privrec.test.zz");
  obs::GetCounter("privrec.test.aa");
  obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  for (size_t k = 1; k < snapshot.counters.size(); ++k) {
    EXPECT_LT(snapshot.counters[k - 1].name, snapshot.counters[k].name);
  }
}

// ----------------------------------------------------------------- Tracer

TEST(TracerTest, DisabledRecordsNothing) {
  obs::Tracer::Instance().SetEnabled(false);
  obs::Tracer::Instance().Clear();
  { PRIVREC_SPAN("test.disabled"); }
  EXPECT_TRUE(obs::Tracer::Instance().Snapshot().empty());
}

TEST(TracerTest, RecordsNestedSpansWithDepthAndChunk) {
  obs::Tracer::Instance().Clear();
  obs::Tracer::Instance().SetEnabled(true);
  {
    PRIVREC_SPAN("test.outer");
    {
      PRIVREC_SPAN_CHUNK("test.inner", 7);
    }
  }
  obs::Tracer::Instance().SetEnabled(false);
  std::vector<obs::SpanRecord> spans = obs::Tracer::Instance().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by (thread, start): the outer span starts first.
  EXPECT_EQ(spans[0].name, "test.outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].chunk, -1);
  EXPECT_EQ(spans[1].name, "test.inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].chunk, 7);
  // Containment: the inner interval nests inside the outer one.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  obs::Tracer::Instance().Clear();
}

TEST(TracerTest, SpansFromParallelChunksCarryChunkIds) {
  obs::Tracer::Instance().Clear();
  obs::Tracer::Instance().SetEnabled(true);
  ScopedThreadCount scoped(4);
  Status run = ParallelFor(1000, [](int64_t, int64_t, int64_t) {});
  ASSERT_TRUE(run.ok());
  obs::Tracer::Instance().SetEnabled(false);
  std::vector<obs::SpanRecord> spans = obs::Tracer::Instance().Snapshot();
  int64_t chunk_spans = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "parallel.chunk") {
      ++chunk_spans;
      EXPECT_GE(s.chunk, 0);
    }
  }
  EXPECT_GT(chunk_spans, 0);
  obs::Tracer::Instance().Clear();
}

TEST(TracerTest, SynthesisSpansNestUnderDataSynthesize) {
  obs::Tracer::Instance().Clear();
  obs::Tracer::Instance().SetEnabled(true);
  data::Dataset d = data::MakeTinyDataset();
  obs::Tracer::Instance().SetEnabled(false);
  std::vector<obs::SpanRecord> spans = obs::Tracer::Instance().Snapshot();
  obs::Tracer::Instance().Clear();
  auto find = [&](const std::string& name) -> const obs::SpanRecord* {
    const obs::SpanRecord* found = nullptr;
    for (const obs::SpanRecord& s : spans) {
      if (s.name != name) continue;
      EXPECT_EQ(found, nullptr) << name << " recorded twice";
      found = &s;
    }
    return found;
  };
  const obs::SpanRecord* outer = find("data.synthesize");
  const obs::SpanRecord* social = find("graph.planted_partition");
  const obs::SpanRecord* prefs = find("graph.preferences");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(social, nullptr);
  ASSERT_NE(prefs, nullptr);
  for (const obs::SpanRecord* child : {social, prefs}) {
    EXPECT_EQ(child->thread_id, outer->thread_id) << child->name;
    EXPECT_EQ(child->depth, outer->depth + 1) << child->name;
    EXPECT_GE(child->start_ns, outer->start_ns) << child->name;
    EXPECT_LE(child->start_ns + child->duration_ns,
              outer->start_ns + outer->duration_ns)
        << child->name;
  }
  // The social graph is planted first; preferences follow its partition.
  EXPECT_LE(social->start_ns + social->duration_ns, prefs->start_ns);
}

// -------------------------------------------------------------- Exporters

obs::MetricsSnapshot GoldenSnapshot() {
  obs::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"privrec.a.count", 3});
  snapshot.gauges.push_back({"privrec.b.eps", 0.5});
  obs::HistogramSample hist;
  hist.name = "privrec.c.ms";
  hist.bounds = {1.0, 10.0};
  hist.counts = {2, 1, 0};
  hist.count = 3;
  hist.sum = 12.5;
  snapshot.histograms.push_back(hist);
  return snapshot;
}

TEST(ExportTest, TableGolden) {
  std::ostringstream out;
  obs::MetricsToTable(GoldenSnapshot(), out);
  EXPECT_EQ(out.str(),
            "--- metrics ---\n"
            "privrec.a.count  3\n"
            "privrec.b.eps    0.5\n"
            "privrec.c.ms     count=3 sum=12.5 "
            "mean=4.166666666666667\n");
}

TEST(ExportTest, TableEmptySnapshot) {
  std::ostringstream out;
  obs::MetricsToTable(obs::MetricsSnapshot{}, out);
  EXPECT_EQ(out.str(), "--- metrics ---\n(no metrics registered)\n");
}

TEST(ExportTest, JsonGolden) {
  EXPECT_EQ(obs::MetricsToJson(GoldenSnapshot()),
            "{\n"
            "  \"counters\": {\n"
            "    \"privrec.a.count\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"privrec.b.eps\": 0.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"privrec.c.ms\": {\"bounds\": [1, 10], "
            "\"counts\": [2, 1, 0], \"count\": 3, \"sum\": 12.5}\n"
            "  }\n"
            "}\n");
}

TEST(ExportTest, JsonEmptySnapshot) {
  EXPECT_EQ(obs::MetricsToJson(obs::MetricsSnapshot{}),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(ExportTest, ChromeTraceGolden) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back({"phase.outer", 1000, 5000, 0, 0, -1});
  spans.push_back({"phase.chunk", 2000, 1000, 1, 1, 3});
  EXPECT_EQ(obs::SpansToChromeTrace(spans),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"phase.outer\", \"cat\": \"privrec\", "
            "\"ph\": \"X\", \"ts\": 1, \"dur\": 5, \"pid\": 1, "
            "\"tid\": 0, \"args\": {\"depth\": 0}},\n"
            "  {\"name\": \"phase.chunk\", \"cat\": \"privrec\", "
            "\"ph\": \"X\", \"ts\": 2, \"dur\": 1, \"pid\": 1, "
            "\"tid\": 1, \"args\": {\"depth\": 1, \"chunk\": 3}}\n"
            "],\n"
            "\"displayTimeUnit\": \"ms\"}\n");
}

TEST(ExportTest, ChromeTraceEmpty) {
  EXPECT_EQ(obs::SpansToChromeTrace({}),
            "{\"traceEvents\": [],\n\"displayTimeUnit\": \"ms\"}\n");
}

TEST(ExportTest, JsonEscapesSpecialCharacters) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"bad\"name\\with\nnewline", 1});
  std::string json = obs::MetricsToJson(snapshot);
  EXPECT_NE(json.find("bad\\\"name\\\\with\\nnewline"), std::string::npos);
}

TEST(ExportTest, HistogramQuantileGuardsNanAndOutOfRange) {
  obs::HistogramSample s;
  s.bounds = {1.0, 10.0};
  s.counts = {5, 5, 0};
  s.count = 10;
  s.sum = 30.0;
  // Negative and NaN q both clamp to 0; q > 1 clamps to 1.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, -0.5),
                   obs::HistogramQuantile(s, 0.0));
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, std::nan("")),
                   obs::HistogramQuantile(s, 0.0));
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 2.0),
                   obs::HistogramQuantile(s, 1.0));
  // Empty sample reads as 0 at every q.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(obs::HistogramSample{}, 0.5),
                   0.0);
}

TEST(ExportTest, HistogramQuantileExactRankAtBucketBoundary) {
  // 10 observations, 5 in (0,1] and 5 in (1,10]: the rank-5 observation
  // (q=0.5) is the last of bucket 0, so interpolation lands exactly on
  // the shared bucket edge; rank 6 (q=0.6) steps into the next bucket.
  obs::HistogramSample s;
  s.bounds = {1.0, 10.0};
  s.counts = {5, 5, 0};
  s.count = 10;
  s.sum = 30.0;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.6),
                   1.0 + (10.0 - 1.0) * (1.0 / 5.0));
  // All mass in the overflow bucket: no upper edge, report the last bound.
  obs::HistogramSample overflow;
  overflow.bounds = {1.0, 10.0};
  overflow.counts = {0, 0, 3};
  overflow.count = 3;
  overflow.sum = 300.0;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(overflow, 0.99), 10.0);
}

TEST(ExportTest, HistogramQuantileBracketsBruteForceOracle) {
  // Oracle check on the serving grid: fold a deterministic sample into
  // the histogram, sort the same values exactly, and require the
  // interpolated quantile to land inside the bucket holding the true
  // rank-statistic.
  const std::vector<double> bounds = obs::LatencyBucketsMs();
  obs::HistogramSample s;
  s.bounds = bounds;
  s.counts.assign(bounds.size() + 1, 0);
  std::vector<double> values;
  uint64_t x = 42;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double v =
        static_cast<double>(x >> 40) / 16777216.0 * 200.0;  // [0, 200)
    values.push_back(v);
    const size_t b = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) -
        bounds.begin());
    ++s.counts[b];
    ++s.count;
    s.sum += v;
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const size_t rank = static_cast<size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(values.size()))));
    const double exact = values[rank - 1];
    const size_t b = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), exact) -
        bounds.begin());
    ASSERT_LT(b, bounds.size()) << "oracle value fell off the grid";
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double hi = bounds[b];
    const double estimate = obs::HistogramQuantile(s, q);
    EXPECT_GE(estimate, lo) << "q=" << q;
    EXPECT_LE(estimate, hi) << "q=" << q;
  }
}

TEST(ExportTest, ChromeTraceSpanArgsGolden) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back({"serve.request", 1000, 5000, 0, 0, -1});
  spans.back().args = {{"request_id", "17"}, {"ba\"d", "line\nbreak"}};
  EXPECT_EQ(obs::SpansToChromeTrace(spans),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"serve.request\", \"cat\": \"privrec\", "
            "\"ph\": \"X\", \"ts\": 1, \"dur\": 5, \"pid\": 1, "
            "\"tid\": 0, \"args\": {\"depth\": 0, "
            "\"request_id\": \"17\", \"ba\\\"d\": \"line\\nbreak\"}}\n"
            "],\n"
            "\"displayTimeUnit\": \"ms\"}\n");
}

TEST(ExportTest, JsonEscapeControlCharactersAreUnicodeEscaped) {
  // Bytes below 0x20 must come out as \u00XX even when char is signed —
  // the cast chain must not sign-extend.
  EXPECT_EQ(obs::JsonEscape("a" + std::string(1, '\x01') + "b"),
            "a\\u0001b");
  EXPECT_EQ(obs::JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::JsonEscape("q\"b\\s"), "q\\\"b\\\\s");
}

TEST(TracerTest, SpanScopeArgsReachTheSnapshot) {
  obs::Tracer::Instance().Clear();
  obs::Tracer::Instance().SetEnabled(true);
  {
    obs::SpanScope span("test.args_span");
    span.Arg("request_id", "99");
    span.Arg("epoch", "4");
  }
  obs::Tracer::Instance().SetEnabled(false);
  std::vector<obs::SpanRecord> spans = obs::Tracer::Instance().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].first, "request_id");
  EXPECT_EQ(spans[0].args[0].second, "99");
  EXPECT_EQ(spans[0].args[1].first, "epoch");
  EXPECT_EQ(spans[0].args[1].second, "4");
  obs::Tracer::Instance().Clear();
}

// ------------------------------------------------------------ Wide events

obs::RequestTelemetry GoldenEvent() {
  obs::RequestTelemetry event;
  event.request_id = 7;
  event.arrival_ms = 100;
  event.resolve_ms = 106;
  event.latency_ms = 6.5;
  event.outcome = obs::RequestOutcome::kOk;
  event.admission = obs::AdmissionOutcome::kQueued;
  event.queue_wait_ms = 1;
  event.reconstruct_ms = 4.0;
  event.epoch = 3;
  event.artifact_seed = 42;
  event.shard_count = 2;
  event.users = 4;
  event.top_n = 10;
  event.deadline_ms = 400;
  event.degraded = false;
  event.users_degraded = 0;
  event.retry_after_ms = 0;
  event.bound_blocks_visited = 38;
  event.bound_blocks_total = 6096;
  return event;
}

TEST(WideEventTest, JsonGolden) {
  EXPECT_EQ(obs::RequestTelemetryToJson(GoldenEvent()),
            "{\"type\": \"request\", \"id\": 7, \"arrival_ms\": 100, "
            "\"resolve_ms\": 106, \"latency_ms\": 6.5, "
            "\"outcome\": \"ok\", \"admission\": \"queued\", "
            "\"queue_ms\": 1, \"reconstruct_ms\": 4, \"epoch\": 3, "
            "\"artifact_seed\": 42, \"shard_count\": 2, \"users\": 4, "
            "\"top_n\": 10, \"deadline_ms\": 400, \"degraded\": false, "
            "\"users_degraded\": 0, \"retry_after_ms\": 0, "
            "\"bound_blocks_visited\": 38, \"bound_blocks_total\": 6096}");
}

TEST(WideEventTest, SamplingKeepsEveryInterestingRequest) {
  obs::WideEventSampling sampling;  // 1-in-16, slow at 100 ms
  obs::RequestTelemetry event = GoldenEvent();
  event.outcome = obs::RequestOutcome::kShed;
  EXPECT_TRUE(obs::SampleWideEvent(event, sampling));
  event = GoldenEvent();
  event.degraded = true;
  EXPECT_TRUE(obs::SampleWideEvent(event, sampling));
  event = GoldenEvent();
  event.latency_ms = 250.0;
  EXPECT_TRUE(obs::SampleWideEvent(event, sampling));
  // slow_ms < 0 disables the slow keep.
  obs::WideEventSampling no_slow;
  no_slow.slow_ms = -1.0;
  no_slow.sample_every = 1u << 20;
  EXPECT_FALSE(obs::SampleWideEvent(event, no_slow));
  // sample_every <= 1 keeps everything.
  obs::WideEventSampling keep_all;
  keep_all.sample_every = 1;
  EXPECT_TRUE(obs::SampleWideEvent(GoldenEvent(), keep_all));
}

TEST(WideEventTest, OkSamplingIsAPureFunctionOfTheRequestId) {
  // The 1-in-K subset is keyed off a splitmix64 mix of the id: the same
  // id set always yields the same sample, and the rate is close to 1/K.
  obs::WideEventSampling sampling;
  sampling.sample_every = 16;
  sampling.slow_ms = -1.0;
  int64_t kept = 0;
  for (uint64_t id = 1; id <= 4096; ++id) {
    obs::RequestTelemetry event = GoldenEvent();
    event.request_id = id;
    const bool sampled = obs::SampleWideEvent(event, sampling);
    EXPECT_EQ(sampled, obs::MixRequestId(id) % 16 == 0) << "id " << id;
    kept += sampled ? 1 : 0;
  }
  EXPECT_GT(kept, 4096 / 16 / 2);
  EXPECT_LT(kept, 4096 / 16 * 2);
}

// -------------------------------------------------------- Rolling windows

TEST(RollingWindowsTest, AlignsToGridAndClosesEmptyWindows) {
  obs::RollingWindows windows(100);
  windows.Observe(37, obs::RequestOutcome::kOk, false, 2.0);
  windows.Observe(95, obs::RequestOutcome::kShed, true, 0.0);
  windows.Observe(105, obs::RequestOutcome::kOk, false, 4.0);
  // Jump over three idle windows: every one must be closed (idle periods
  // still count toward burn-down), not silently skipped.
  windows.Observe(450, obs::RequestOutcome::kExpired, false, 50.0);
  windows.Flush();
  const obs::WindowSeries& series = windows.series();
  ASSERT_EQ(series.windows.size(), 5u);
  EXPECT_EQ(series.windows[0].start_ms, 0);
  EXPECT_EQ(series.windows[0].requests, 2);
  EXPECT_EQ(series.windows[0].ok, 1);
  EXPECT_EQ(series.windows[0].shed, 1);
  EXPECT_EQ(series.windows[0].degraded, 1);
  EXPECT_DOUBLE_EQ(series.windows[0].rps, 20.0);
  EXPECT_DOUBLE_EQ(series.windows[0].shed_rate, 0.5);
  EXPECT_EQ(series.windows[1].start_ms, 100);
  EXPECT_EQ(series.windows[1].requests, 1);
  EXPECT_EQ(series.windows[2].requests, 0);
  EXPECT_EQ(series.windows[3].requests, 0);
  EXPECT_EQ(series.windows[4].start_ms, 400);
  EXPECT_EQ(series.windows[4].expired, 1);
  for (size_t i = 0; i < series.windows.size(); ++i) {
    EXPECT_EQ(series.windows[i].index, static_cast<int64_t>(i));
  }
  EXPECT_EQ(windows.observed(), 4);
}

TEST(RollingWindowsTest, BudgetBreachRaisesBurnAlert) {
  obs::WindowBudget budget;
  budget.p99_ms = 5.0;
  budget.lookback = 4;
  budget.burn_threshold = 0.2;  // strictly-greater: 1/4 must fire
  obs::RollingWindows windows(100, budget);
  // Two fast windows, then two slow ones: burn crosses the threshold on
  // the first breach (1/4) and stays up on the second.
  windows.Observe(10, obs::RequestOutcome::kOk, false, 1.0);
  windows.Observe(110, obs::RequestOutcome::kOk, false, 1.0);
  windows.Observe(210, obs::RequestOutcome::kOk, false, 80.0);
  windows.Observe(310, obs::RequestOutcome::kOk, false, 80.0);
  windows.Flush();
  const obs::WindowSeries& series = windows.series();
  ASSERT_EQ(series.windows.size(), 4u);
  EXPECT_FALSE(series.windows[0].breach);
  EXPECT_FALSE(series.windows[1].breach);
  EXPECT_TRUE(series.windows[2].breach);
  EXPECT_TRUE(series.windows[3].breach);
  EXPECT_NE(series.windows[2].breach_reason.find("p99"),
            std::string::npos);
  EXPECT_EQ(windows.breaches(), 2);
  ASSERT_EQ(series.alerts.size(), 2u);
  EXPECT_EQ(series.alerts[0].window_index, 2);
  EXPECT_DOUBLE_EQ(series.alerts[0].burn_rate, 0.25);
  EXPECT_DOUBLE_EQ(series.alerts[1].burn_rate, 0.5);
  EXPECT_DOUBLE_EQ(windows.burn_rate(), 0.5);
}

TEST(RollingWindowsTest, BurnRateDecaysThroughIdleWindows) {
  obs::WindowBudget budget;
  budget.max_shed_rate = 0.0;  // any shed at all breaches
  budget.lookback = 2;
  budget.burn_threshold = 0.75;
  obs::RollingWindows windows(100, budget);
  windows.Observe(10, obs::RequestOutcome::kShed, true, 0.0);
  EXPECT_DOUBLE_EQ(windows.burn_rate(), 0.0);  // window still open
  // Six empty windows close behind this observation; the breach bit ages
  // out of the 2-deep ring.
  windows.Observe(710, obs::RequestOutcome::kOk, false, 1.0);
  EXPECT_DOUBLE_EQ(windows.burn_rate(), 0.0);
  EXPECT_EQ(windows.breaches(), 1);
  EXPECT_TRUE(windows.series().alerts.empty());  // 0.5 never beat 0.75
  windows.Flush();
}

TEST(RollingWindowsTest, EvictsOldestWindowPastTheCap) {
  obs::RollingWindows windows(100, obs::WindowBudget{}, /*max_windows=*/3);
  for (int64_t w = 0; w < 6; ++w) {
    windows.Observe(w * 100 + 10, obs::RequestOutcome::kOk, false, 1.0);
  }
  windows.Flush();
  const obs::WindowSeries& series = windows.series();
  ASSERT_EQ(series.windows.size(), 3u);
  EXPECT_EQ(series.dropped_windows, 3);
  EXPECT_EQ(series.windows.front().index, 3);
  EXPECT_EQ(series.windows.back().index, 5);
}

TEST(RollingWindowsTest, SeriesJsonIsDeterministic) {
  auto run = [] {
    obs::WindowBudget budget;
    budget.p99_ms = 3.0;
    obs::RollingWindows windows(50, budget);
    for (int64_t i = 0; i < 40; ++i) {
      windows.Observe(i * 13,
                      i % 7 == 0 ? obs::RequestOutcome::kShed
                                 : obs::RequestOutcome::kOk,
                      i % 7 == 0, static_cast<double>(i % 9));
    }
    windows.Flush();
    return obs::WindowSeriesToJson(windows.series());
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"windows\": ["), std::string::npos);
}

// ------------------------------------------------------- LatencyRecorder

TEST(LatencyRecorderTest, QuantilesTrackObservations) {
  obs::LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) recorder.Observe(static_cast<double>(i));
  EXPECT_EQ(recorder.count(), 100);
  EXPECT_DOUBLE_EQ(recorder.mean(), 50.5);

  // Log-spaced buckets: quantiles are interpolations, so allow the bucket
  // width as tolerance rather than expecting exact order statistics.
  const double p50 = recorder.Quantile(0.50);
  const double p99 = recorder.Quantile(0.99);
  EXPECT_GT(p50, 30.0);
  EXPECT_LT(p50, 70.0);
  EXPECT_GT(p99, 80.0);
  EXPECT_LE(p99, 160.0);
  EXPECT_LE(p50, p99);
}

TEST(LatencyRecorderTest, MergeIsExactOverCounts) {
  obs::LatencyRecorder a;
  obs::LatencyRecorder b;
  obs::LatencyRecorder whole;
  for (int i = 0; i < 50; ++i) {
    a.Observe(1.0 + i);
    whole.Observe(1.0 + i);
  }
  for (int i = 0; i < 50; ++i) {
    b.Observe(200.0 + i);
    whole.Observe(200.0 + i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), whole.Quantile(0.5));
  EXPECT_DOUBLE_EQ(a.Quantile(0.999), whole.Quantile(0.999));
}

// ------------------------------------------------------------ ScopedTimer

TEST(ScopedTimerTest, AccumulatesIntoHistogram) {
  obs::Histogram& hist = obs::GetHistogram(
      "privrec.test.timer_ms", obs::ExponentialBuckets(1.0, 10.0, 4));
  hist.ResetValue();
  {
    ScopedTimer timer(&hist);
  }
  EXPECT_EQ(hist.count(), 1);
  EXPECT_GE(hist.sum(), 0.0);
  // Stop() is idempotent: a second stop records nothing more.
  ScopedTimer timer(&hist);
  timer.Stop();
  timer.Stop();
  EXPECT_EQ(hist.count(), 2);
}

TEST(ScopedTimerTest, NullSinkIsSafe) {
  ScopedTimer timer(nullptr);
  timer.Stop();
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

// ------------------------------------------------------------- ObsSession

TEST(ObsSessionTest, WritesRequestedExports) {
  const std::string metrics_path = ::testing::TempDir() + "obs_m.json";
  const std::string trace_path = ::testing::TempDir() + "obs_t.json";
  const std::string metrics_arg = "--metrics-json=" + metrics_path;
  const std::string trace_arg = "--trace-out=" + trace_path;
  const char* argv[] = {"prog", metrics_arg.c_str(), trace_arg.c_str()};
  FlagParser flags(3, const_cast<char**>(argv));
  {
    ObsSession session = ApplyDriverFlags(flags);
    EXPECT_TRUE(flags.Validate());
    obs::GetCounter("privrec.test.session").Increment();
    { PRIVREC_SPAN("test.session_span"); }
  }
  // The destructor wrote both files and disabled the tracer.
  EXPECT_FALSE(obs::Tracer::Instance().enabled());
  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  EXPECT_NE(metrics_text.str().find("\"counters\""), std::string::npos);
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NE(trace_text.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(metrics_text.str().find("privrec.test.session"),
            std::string::npos);
  EXPECT_NE(trace_text.str().find("test.session_span"),
            std::string::npos);
  obs::Tracer::Instance().Clear();
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(ObsSessionTest, TypoSuggestionsCoverObsFlags) {
  const char* argv[] = {"prog", "--trace-oot=/tmp/t.json"};
  FlagParser flags(2, const_cast<char**>(argv));
  ObsSession session = ApplyDriverFlags(flags);
  EXPECT_EQ(flags.SuggestionFor("trace-oot"), "trace-out");
  EXPECT_FALSE(flags.Validate());
  EXPECT_EQ(flags.SuggestionFor("metrics-jsan"), "metrics-json");
}

// ---------------------------------------------------- Determinism guard

std::vector<core::RecommendationList> RunPipelineOnce(int64_t threads) {
  ScopedThreadCount scoped(threads);
  static const data::Dataset& dataset =
      *new data::Dataset(data::MakeTinyDataset(300, 400, 3));
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(
          dataset.social, similarity::CommonNeighbors());
  core::RecommenderContext context{&dataset.social, &dataset.preferences,
                                   &workload};
  community::LouvainResult louvain =
      community::RunLouvain(dataset.social, {.restarts = 2, .seed = 11});
  auto rec =
      test_mechanisms::MakeCluster(context, louvain.partition, 0.5, 12);
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < dataset.social.num_nodes(); ++u) {
    users.push_back(u);
  }
  return rec->Recommend(users, 10);
}

TEST(ObsDeterminismTest, TracingAndMetricsNeverPerturbOutput) {
  // The zero-interference contract: the full pipeline produces
  // bit-identical recommendations whether tracing is on or off, at any
  // thread count. This is what makes it safe to leave instrumentation in
  // the DP release paths — observation cannot consume randomness or
  // change FP evaluation order.
  obs::Tracer::Instance().SetEnabled(false);
  obs::Tracer::Instance().Clear();
  std::vector<core::RecommendationList> baseline = RunPipelineOnce(1);

  for (int64_t threads : {int64_t{1}, int64_t{4}}) {
    obs::Tracer::Instance().SetEnabled(true);
    std::vector<core::RecommendationList> traced =
        RunPipelineOnce(threads);
    obs::Tracer::Instance().SetEnabled(false);
    obs::Tracer::Instance().Clear();
    ASSERT_EQ(traced.size(), baseline.size());
    for (size_t u = 0; u < baseline.size(); ++u) {
      ASSERT_EQ(traced[u].size(), baseline[u].size()) << "user " << u;
      for (size_t k = 0; k < baseline[u].size(); ++k) {
        EXPECT_EQ(traced[u][k].item, baseline[u][k].item)
            << "user " << u << " rank " << k;
        EXPECT_EQ(traced[u][k].utility, baseline[u][k].utility)
            << "user " << u << " rank " << k;
      }
    }
  }
}

}  // namespace
}  // namespace privrec
