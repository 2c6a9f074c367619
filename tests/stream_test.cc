// Stream subsystem tests: WAL framing and torn-tail recovery, journaled
// ingestion replay bit-identity, incremental community maintenance
// invariants, re-publication scheduling, and pipeline crash recovery —
// including the journal-replay determinism matrix across thread counts.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "community/incremental.h"
#include "community/modularity.h"
#include "core/dynamic_recommender.h"
#include "dp/ledger.h"
#include "stream/ingester.h"
#include "stream/pipeline.h"
#include "stream/scheduler.h"
#include "stream/wal.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// One of every record type — the golden journal the replay tests use.
std::vector<stream::WalRecord> EveryRecordType() {
  return {
      stream::WalRecord::AddSocial(1, 2),
      stream::WalRecord::AddSocial(2, 3),
      stream::WalRecord::AddPreference(1, 4, 2.5),
      stream::WalRecord::RemoveSocial(2, 3),
      stream::WalRecord::AddPreference(3, 0, 1.0),
      stream::WalRecord::RemovePreference(1, 4),
      stream::WalRecord::PublishMark(0, 6, 0xfeedface),
  };
}

TEST(StreamWal, RoundTripsEveryRecordType) {
  const fs::path dir = FreshDir("privrec_wal_roundtrip");
  const std::string path = (dir / "test.wal").string();
  const std::vector<stream::WalRecord> records = EveryRecordType();
  {
    auto wal = stream::StreamWal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_FALSE(wal->recovered_torn_tail());
    for (const stream::WalRecord& r : records) {
      ASSERT_TRUE(wal->Append(r).ok());
    }
    EXPECT_EQ(wal->records_appended(), static_cast<int64_t>(records.size()));
  }

  // Non-mutating parse sees the same records...
  auto replay = stream::StreamWal::Read(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, records);
  EXPECT_FALSE(replay->recovered_torn_tail);
  EXPECT_EQ(replay->valid_bytes,
            stream::kWalHeaderBytes +
                records.size() * stream::kWalFrameBytes);

  // ...and so does a reopened appender.
  auto reopened = stream::StreamWal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->replayed(), records);
}

TEST(StreamWal, GoldenBytesPinTheFormat) {
  const fs::path dir = FreshDir("privrec_wal_golden");
  const std::string path = (dir / "golden.wal").string();
  {
    auto wal = stream::StreamWal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(stream::WalRecord::AddSocial(7, 9)).ok());
  }
  const std::string bytes = ReadAllBytes(path);
  ASSERT_EQ(bytes.size(), stream::kWalHeaderBytes + stream::kWalFrameBytes);
  // Header: magic + little-endian version 1.
  EXPECT_EQ(bytes.substr(0, 8), "PVRECWAL");
  EXPECT_EQ(static_cast<uint8_t>(bytes[8]), 1);
  EXPECT_EQ(static_cast<uint8_t>(bytes[9]), 0);
  // Frame: length 25, then payload starting with the record type and the
  // little-endian i64 fields.
  EXPECT_EQ(static_cast<uint8_t>(bytes[12]), stream::kWalPayloadBytes);
  const size_t payload = 12 + 8;
  EXPECT_EQ(static_cast<uint8_t>(bytes[payload]), 1);      // kAddSocial
  EXPECT_EQ(static_cast<uint8_t>(bytes[payload + 1]), 7);  // a, LE
  EXPECT_EQ(static_cast<uint8_t>(bytes[payload + 9]), 9);  // b, LE
}

TEST(StreamWal, TornTailTruncatedAtEveryOffset) {
  const fs::path dir = FreshDir("privrec_wal_torn");
  const std::string base = (dir / "base.wal").string();
  const std::vector<stream::WalRecord> records = EveryRecordType();
  {
    auto wal = stream::StreamWal::Open(base);
    ASSERT_TRUE(wal.ok());
    for (const stream::WalRecord& r : records) {
      ASSERT_TRUE(wal->Append(r).ok());
    }
  }
  const std::string bytes = ReadAllBytes(base);
  const uint64_t intact =
      stream::kWalHeaderBytes +
      (records.size() - 1) * stream::kWalFrameBytes;

  // Cut the final frame at every byte offset: every cut must recover to
  // exactly the first records.size()-1 records, never an error.
  for (uint64_t cut = intact + 1; cut < bytes.size(); ++cut) {
    const std::string path =
        (dir / ("cut_" + std::to_string(cut) + ".wal")).string();
    WriteAllBytes(path, bytes.substr(0, cut));
    auto wal = stream::StreamWal::Open(path);
    ASSERT_TRUE(wal.ok()) << "cut at " << cut << ": "
                          << wal.status().ToString();
    EXPECT_TRUE(wal->recovered_torn_tail()) << "cut at " << cut;
    ASSERT_EQ(wal->replayed().size(), records.size() - 1) << "cut at "
                                                          << cut;
    // Open truncated the torn bytes: the file is appendable again and a
    // fresh append round-trips.
    ASSERT_TRUE(wal->Append(records.back()).ok());
  }

  // A cut exactly on a frame boundary is not torn at all.
  const std::string clean = (dir / "clean_cut.wal").string();
  WriteAllBytes(clean, bytes.substr(0, intact));
  auto wal = stream::StreamWal::Open(clean);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal->recovered_torn_tail());
  EXPECT_EQ(wal->replayed().size(), records.size() - 1);
}

TEST(StreamWal, MidFileCorruptionIsDataLossNotRecovery) {
  const fs::path dir = FreshDir("privrec_wal_corrupt");
  const std::string path = (dir / "corrupt.wal").string();
  {
    auto wal = stream::StreamWal::Open(path);
    ASSERT_TRUE(wal.ok());
    for (const stream::WalRecord& r : EveryRecordType()) {
      ASSERT_TRUE(wal->Append(r).ok());
    }
  }
  std::string bytes = ReadAllBytes(path);
  // Flip a payload bit in the SECOND frame: not the final frame, so this
  // must report corruption, not torn-tail recovery.
  const size_t victim =
      stream::kWalHeaderBytes + stream::kWalFrameBytes + 10;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x01);
  WriteAllBytes(path, bytes);
  auto wal = stream::StreamWal::Open(path);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kDataLoss);
}

TEST(StreamWal, EveryHeaderBitFlipInAMidFileFrameIsDataLoss) {
  // A corrupted length in a frame that is not the last must not be read
  // as a torn tail: the open would truncate every later record away.
  const fs::path dir = FreshDir("privrec_wal_header_flips");
  const std::string base = (dir / "base.wal").string();
  {
    auto wal = stream::StreamWal::Open(base);
    ASSERT_TRUE(wal.ok());
    for (int64_t k = 0; k < 7; ++k) {
      ASSERT_TRUE(wal->Append(stream::WalRecord::AddSocial(k, k + 1)).ok());
    }
  }
  const std::string bytes = ReadAllBytes(base);
  ASSERT_EQ(bytes.size(),
            stream::kWalHeaderBytes + 7 * stream::kWalFrameBytes);
  // The second frame's 8 header bytes: u32 length, then u32 crc.
  const size_t header = stream::kWalHeaderBytes + stream::kWalFrameBytes;
  const std::string path = (dir / "flipped.wal").string();
  for (size_t byte = 0; byte < 8; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = bytes;
      mutant[header + byte] =
          static_cast<char>(mutant[header + byte] ^ (1 << bit));
      WriteAllBytes(path, mutant);
      auto wal = stream::StreamWal::Open(path);
      EXPECT_EQ(wal.status().code(), StatusCode::kDataLoss)
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(fs::file_size(path), bytes.size())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(StreamWal, InjectedAppendFaultsLeaveARecoverableJournal) {
  const fs::path dir = FreshDir("privrec_wal_fault");
  const std::string path = (dir / "fault.wal").string();
  {
    auto wal = stream::StreamWal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(stream::WalRecord::AddSocial(0, 1)).ok());
    // A short-read fault writes half a frame and fails the call — the
    // on-disk image is exactly a crash mid-write.
    fault::ScopedFaultInjection scope(
        "stream.wal.append", {.kind = fault::FaultKind::kShortRead});
    Status torn = wal->Append(stream::WalRecord::AddSocial(1, 2));
    EXPECT_FALSE(torn.ok());
  }
  auto recovered = stream::StreamWal::Open(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->recovered_torn_tail());
  ASSERT_EQ(recovered->replayed().size(), 1u);
  EXPECT_EQ(recovered->replayed()[0], stream::WalRecord::AddSocial(0, 1));
}

TEST(EdgeStreamIngester, ReplayIsBitIdenticalAndIdempotent) {
  const fs::path dir = FreshDir("privrec_ingester_replay");
  stream::EdgeStreamOptions options;
  options.num_users = 10;
  options.num_items = 6;
  options.wal_path = (dir / "edges.wal").string();

  uint64_t fingerprint = 0;
  int64_t deltas = 0;
  {
    auto ingester = stream::EdgeStreamIngester::Open(options);
    ASSERT_TRUE(ingester.ok()) << ingester.status().ToString();
    ASSERT_TRUE(ingester->AddSocialEdge(1, 2).ok());
    ASSERT_TRUE(ingester->AddSocialEdge(2, 1).ok());  // duplicate: no-op
    ASSERT_TRUE(ingester->AddSocialEdge(3, 4).ok());
    ASSERT_TRUE(ingester->RemoveSocialEdge(5, 6).ok());  // absent: no-op
    ASSERT_TRUE(ingester->AddPreference(1, 3, 2.0).ok());
    ASSERT_TRUE(ingester->AddPreference(1, 3, 4.0).ok());  // overwrite
    ASSERT_TRUE(ingester->RemovePreference(2, 2).ok());    // absent
    EXPECT_EQ(ingester->social_edges(), 2);
    EXPECT_EQ(ingester->preference_edges(), 1);
    // Every valid delta is journaled, state no-ops included — the count
    // is the stream position, not the state size.
    EXPECT_EQ(ingester->delta_records(), 7);
    fingerprint = ingester->GraphFingerprint();
    deltas = ingester->delta_records();
  }

  int64_t observed = 0;
  auto replayed = stream::EdgeStreamIngester::Open(
      options, [&observed](const stream::WalRecord&,
                           const stream::EdgeStreamIngester&) {
        ++observed;
      });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->GraphFingerprint(), fingerprint);
  EXPECT_EQ(replayed->delta_records(), deltas);
  EXPECT_EQ(observed, deltas);
  // The materialized graphs reflect the replayed state.
  EXPECT_EQ(replayed->BuildSocialGraph().num_edges(), 2);
  graph::PreferenceGraph prefs = replayed->BuildPreferenceGraph();
  EXPECT_EQ(prefs.num_edges(), 1);
}

TEST(EdgeStreamIngester, RejectsInvalidDeltasBeforeJournaling) {
  const fs::path dir = FreshDir("privrec_ingester_validate");
  stream::EdgeStreamOptions options;
  options.num_users = 4;
  options.num_items = 3;
  options.wal_path = (dir / "edges.wal").string();
  auto ingester = stream::EdgeStreamIngester::Open(options);
  ASSERT_TRUE(ingester.ok());

  EXPECT_EQ(ingester->AddSocialEdge(0, 4).code(),
            StatusCode::kInvalidArgument);  // out of range
  EXPECT_EQ(ingester->AddSocialEdge(2, 2).code(),
            StatusCode::kInvalidArgument);  // self loop
  EXPECT_EQ(ingester->AddPreference(0, 0, 0.0).code(),
            StatusCode::kInvalidArgument);  // non-positive weight
  EXPECT_EQ(ingester->AddPreference(0, 0, 1.0 / 0.0).code(),
            StatusCode::kInvalidArgument);  // non-finite weight
  EXPECT_EQ(ingester->RemovePreference(-1, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ingester->delta_records(), 0);

  // Nothing reached the journal: a reopen replays zero records.
  auto replay = stream::StreamWal::Read(options.wal_path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
}

// The maintained modularity must equal a from-scratch recomputation on the
// materialized graph after EVERY delta — the integer sufficient statistics
// cannot drift.
TEST(IncrementalCommunity, MatchesRecomputedModularityUnderChurn) {
  community::IncrementalCommunityOptions options;
  options.drift_threshold = 0.10;
  community::IncrementalCommunity maintained(24, options);

  uint64_t bits = 12345;
  auto next = [&bits] {
    bits ^= bits << 13;
    bits ^= bits >> 7;
    bits ^= bits << 17;
    return bits;
  };
  for (int step = 0; step < 300; ++step) {
    const auto u = static_cast<graph::NodeId>(next() % 24);
    auto v = static_cast<graph::NodeId>(next() % 24);
    if (v == u) v = (v + 1) % 24;
    if (next() % 4 == 0) {
      maintained.RemoveEdge(u, v);
    } else {
      maintained.AddEdge(u, v);
    }
    const double recomputed = maintained.num_edges() == 0
                                  ? 0.0
                                  : community::Modularity(
                                        maintained.BuildGraph(),
                                        maintained.partition());
    ASSERT_NEAR(maintained.modularity(), recomputed, 1e-9)
        << "after step " << step;
  }
  // Local moves actually happened — the maintenance is not a no-op.
  EXPECT_GT(maintained.local_moves(), 0);
}

// Local moves only relocate the touched endpoints, so diluting a clean
// community structure with cross-cluster edges decays Q until the drift
// threshold forces a full Louvain restart.
TEST(IncrementalCommunity, DriftTriggersFullRestart) {
  community::IncrementalCommunityOptions options;
  options.drift_threshold = 0.05;
  community::IncrementalCommunity maintained(24, options);
  // Three 8-cliques: crisp structure, high baseline modularity.
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 8; ++i) {
      for (int j = i + 1; j < 8; ++j) {
        maintained.AddEdge(c * 8 + i, c * 8 + j);
      }
    }
  }
  maintained.ForceRestart();
  const int64_t restarts_before = maintained.full_restarts();
  ASSERT_GT(maintained.baseline(), 0.3);

  // Dilute: wire every clique to every other until the drift trips.
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      maintained.AddEdge(i, 8 + j);
      maintained.AddEdge(8 + i, 16 + j);
      maintained.AddEdge(16 + i, j);
    }
  }
  EXPECT_GT(maintained.full_restarts(), restarts_before);
  // After the restart the baseline tracks the fresh clustering: the drift
  // is back under the threshold.
  EXPECT_LT(maintained.drift(), options.drift_threshold);
  // And the invariant still holds post-restart.
  EXPECT_NEAR(maintained.modularity(),
              community::Modularity(maintained.BuildGraph(),
                                    maintained.partition()),
              1e-9);
}

TEST(IncrementalCommunity, ReplayingTheSameDeltasIsBitIdentical) {
  auto run = [] {
    community::IncrementalCommunity c(16, {});
    for (int i = 0; i < 40; ++i) {
      c.AddEdge(i % 16, (i * 7 + 1) % 16 == i % 16 ? (i % 16 + 1) % 16
                                                   : (i * 7 + 1) % 16);
      if (i % 5 == 0 && i > 0) c.RemoveEdge(i % 16, (i + 3) % 16);
    }
    return c;
  };
  community::IncrementalCommunity a = run();
  community::IncrementalCommunity b = run();
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.modularity(), b.modularity());  // exactly, not approximately
  EXPECT_EQ(a.full_restarts(), b.full_restarts());
}

TEST(RepublishScheduler, TriggersFireInPriorityOrder) {
  stream::RepublishPolicy policy;
  policy.min_deltas_between = 3;
  policy.every_deltas = 0;
  policy.drift_threshold = 0.05;
  policy.min_growth = 0.5;
  stream::RepublishScheduler scheduler(policy);

  // Below the hysteresis floor: silent.
  const stream::WalRecord delta = stream::WalRecord::AddSocial(0, 1);
  scheduler.Observe(delta, 0.4, 1);
  scheduler.Observe(delta, 0.4, 2);
  EXPECT_EQ(scheduler.DueReason(), "");
  // Floor reached, nothing published yet: initial publication.
  scheduler.Observe(delta, 0.4, 3);
  EXPECT_NE(scheduler.DueReason().find("initial"), std::string::npos);

  // A publish mark resets the baselines.
  scheduler.Observe(stream::WalRecord::PublishMark(0, 3, 1), 0.4, 3);
  EXPECT_EQ(scheduler.DueReason(), "");

  // Drift past the threshold.
  scheduler.Observe(delta, 0.4, 4);
  scheduler.Observe(delta, 0.4, 5);
  scheduler.Observe(delta, 0.30, 5);
  EXPECT_NE(scheduler.DueReason().find("drift"), std::string::npos);

  // Growth trigger (fresh baselines, stable modularity).
  scheduler.Observe(stream::WalRecord::PublishMark(1, 6, 2), 0.4, 5);
  scheduler.Observe(delta, 0.4, 6);
  scheduler.Observe(delta, 0.4, 7);
  scheduler.Observe(delta, 0.4, 9);
  EXPECT_NE(scheduler.DueReason().find("growth"), std::string::npos);

  // Exhaustion mutes automatic triggers; a publish mark does not unmute.
  scheduler.MuteExhausted();
  EXPECT_EQ(scheduler.DueReason(), "");
}

TEST(RepublishScheduler, PeriodicTrigger) {
  stream::RepublishPolicy policy;
  policy.min_deltas_between = 2;
  policy.every_deltas = 4;
  policy.drift_threshold = 1e9;  // keep the other triggers out
  policy.min_growth = 1e9;
  stream::RepublishScheduler scheduler(policy);
  const stream::WalRecord delta = stream::WalRecord::AddSocial(0, 1);
  // Baseline at a nonzero edge count so the growth-from-empty trigger
  // stays out of the way (it is the growth family's bootstrap case).
  scheduler.Observe(stream::WalRecord::PublishMark(0, 0, 0), 0.0, 5);
  scheduler.Observe(delta, 0.0, 5);
  scheduler.Observe(delta, 0.0, 5);
  scheduler.Observe(delta, 0.0, 5);
  EXPECT_EQ(scheduler.DueReason(), "");
  scheduler.Observe(delta, 0.0, 5);
  EXPECT_NE(scheduler.DueReason().find("periodic"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline crash recovery and replay determinism.

struct PipelineRun {
  uint64_t fingerprint = 0;
  std::vector<int64_t> labels;
  std::string ledger_bytes;
  std::string last_artifact_bytes;
  std::vector<std::vector<core::RecommendationList>> published;
  int64_t snapshots = 0;
};

stream::StreamPipelineOptions SmallPipelineOptions(const fs::path& dir) {
  stream::StreamPipelineOptions options;
  options.ingest.num_users = 30;
  options.ingest.num_items = 20;
  options.ingest.wal_path = (dir / "stream.wal").string();
  options.republish.min_deltas_between = 10;
  options.republish.min_growth = 0.6;
  options.session.total_epsilon = 2.0;
  options.session.planned_snapshots = 10;
  options.session.seed = 91;
  options.session.ledger_path = (dir / "budget.ledger").string();
  options.session.artifact_dir = (dir / "artifacts").string();
  return options;
}

// A fixed 60-delta schedule exercising every delta type.
std::vector<stream::WalRecord> PipelineSchedule() {
  std::vector<stream::WalRecord> schedule;
  for (int i = 0; i < 60; ++i) {
    const int u = (i * 7) % 30;
    int v = (i * 11 + 1) % 30;
    if (v == u) v = (v + 1) % 30;
    switch (i % 5) {
      case 0:
      case 1:
      case 2:
        schedule.push_back(stream::WalRecord::AddSocial(u, v));
        break;
      case 3:
        schedule.push_back(stream::WalRecord::AddPreference(
            u, (i * 3) % 20, 1.0 + i % 4));
        break;
      default:
        schedule.push_back(i % 2 == 0
                               ? stream::WalRecord::RemoveSocial(u, v)
                               : stream::WalRecord::RemovePreference(
                                     u, (i * 3) % 20));
        break;
    }
  }
  return schedule;
}

Status ApplyDelta(stream::StreamPipeline* pipeline,
                  const stream::WalRecord& record) {
  switch (record.type) {
    case stream::WalRecordType::kAddSocial:
      return pipeline->AddSocialEdge(record.a, record.b);
    case stream::WalRecordType::kRemoveSocial:
      return pipeline->RemoveSocialEdge(record.a, record.b);
    case stream::WalRecordType::kAddPreference:
      return pipeline->AddPreference(record.a, record.b, record.weight());
    default:
      return pipeline->RemovePreference(record.a, record.b);
  }
}

std::vector<graph::NodeId> ProbeUsers() { return {0, 5, 10, 15, 20, 25}; }

Result<PipelineRun> DrivePipeline(const fs::path& dir) {
  stream::StreamPipelineOptions options = SmallPipelineOptions(dir);
  auto opened = stream::StreamPipeline::Open(options);
  if (!opened.ok()) return opened.status();
  stream::StreamPipeline pipeline = std::move(opened).value();

  PipelineRun run;
  if (pipeline.HasPendingRelease()) {
    auto drained = pipeline.Republish(ProbeUsers(), 5);
    if (!drained.ok()) return drained.status();
    run.published.push_back(drained->release.lists);
  }
  const std::vector<stream::WalRecord> schedule = PipelineSchedule();
  for (int64_t i = pipeline.ingester().delta_records();
       i < static_cast<int64_t>(schedule.size()); ++i) {
    Status applied = ApplyDelta(&pipeline, schedule[static_cast<size_t>(i)]);
    if (!applied.ok()) return applied;
    if (!pipeline.RepublishDue().empty()) {
      auto out = pipeline.Republish(ProbeUsers(), 5);
      if (!out.ok()) return out.status();
      run.published.push_back(out->release.lists);
      run.last_artifact_bytes = ReadAllBytes(out->artifact_path);
    }
  }
  run.fingerprint = pipeline.ingester().GraphFingerprint();
  run.labels = pipeline.community().labels();
  run.ledger_bytes = ReadAllBytes(options.session.ledger_path);
  run.snapshots = pipeline.session().snapshots_processed();
  return run;
}

// The replay-determinism matrix: the same journal driven to completion
// under 1 and 4 threads must produce byte-identical ledgers, artifacts,
// and graph fingerprints.
TEST(StreamPipeline, ReplayDeterministicAcrossThreadCounts) {
  // The SAME directory, sequentially (FreshDir wipes it between runs):
  // artifact provenance embeds the ledger id, so byte-identity is only
  // meaningful when both runs publish under identical paths.
  const int64_t restore = GlobalThreadCount();
  SetGlobalThreadCount(1);
  auto one = DrivePipeline(FreshDir("privrec_pipeline_threads"));
  SetGlobalThreadCount(4);
  auto four = DrivePipeline(FreshDir("privrec_pipeline_threads"));
  SetGlobalThreadCount(restore);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();

  EXPECT_GT(one->snapshots, 0);
  EXPECT_EQ(one->fingerprint, four->fingerprint);
  EXPECT_EQ(one->labels, four->labels);
  EXPECT_EQ(one->ledger_bytes, four->ledger_bytes);
  EXPECT_FALSE(one->last_artifact_bytes.empty());
  EXPECT_EQ(one->last_artifact_bytes, four->last_artifact_bytes);
  ASSERT_EQ(one->published.size(), four->published.size());
  for (size_t i = 0; i < one->published.size(); ++i) {
    EXPECT_EQ(one->published[i], four->published[i]) << "publish " << i;
  }
}

// A crash between ledger intent and commit: the restarted pipeline reports
// the pending release and re-derives it bit-identically, charging nothing.
TEST(StreamPipeline, ResumesPendingReleaseBitIdentically) {
  // Reference: the same schedule with no crash.
  auto reference = DrivePipeline(FreshDir("privrec_pipeline_ref"));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->published.empty());

  const fs::path dir = FreshDir("privrec_pipeline_crash");
  stream::StreamPipelineOptions options = SmallPipelineOptions(dir);
  const std::vector<stream::WalRecord> schedule = PipelineSchedule();
  int64_t crash_index = -1;
  {
    auto opened = stream::StreamPipeline::Open(options);
    ASSERT_TRUE(opened.ok());
    stream::StreamPipeline pipeline = std::move(opened).value();
    fault::ScopedFaultInjection scope(
        "dynamic.after_journal", {.kind = fault::FaultKind::kIoError});
    for (int64_t i = 0; i < static_cast<int64_t>(schedule.size()); ++i) {
      ASSERT_TRUE(
          ApplyDelta(&pipeline, schedule[static_cast<size_t>(i)]).ok());
      if (!pipeline.RepublishDue().empty()) {
        auto out = pipeline.Republish(ProbeUsers(), 5);
        ASSERT_FALSE(out.ok()) << "fault did not fire";
        EXPECT_EQ(out.status().code(), StatusCode::kIoError);
        crash_index = i;
        break;  // the "process" dies here
      }
    }
    ASSERT_GE(crash_index, 0);
  }

  // Restart: the pending (paid) release must be drained first and must be
  // bit-identical to the uninterrupted reference's first publish.
  auto reopened = stream::StreamPipeline::Open(SmallPipelineOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  stream::StreamPipeline pipeline = std::move(reopened).value();
  EXPECT_TRUE(pipeline.HasPendingRelease());
  EXPECT_NE(pipeline.RepublishDue().find("resume"), std::string::npos);
  auto resumed = pipeline.Republish(ProbeUsers(), 5);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->release.resumed_from_intent);
  EXPECT_EQ(resumed->release.epsilon_spent, 0.0);
  EXPECT_EQ(resumed->release.lists, reference->published[0]);

  // Finish the schedule: the end state matches the reference exactly, and
  // the ledger audits clean with the same spent ε (the crash cost nothing
  // extra — the intent was re-derived, not re-charged).
  for (int64_t i = pipeline.ingester().delta_records();
       i < static_cast<int64_t>(schedule.size()); ++i) {
    ASSERT_TRUE(
        ApplyDelta(&pipeline, schedule[static_cast<size_t>(i)]).ok());
    if (!pipeline.RepublishDue().empty()) {
      auto out = pipeline.Republish(ProbeUsers(), 5);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
    }
  }
  EXPECT_EQ(pipeline.ingester().GraphFingerprint(), reference->fingerprint);
  EXPECT_EQ(pipeline.community().labels(), reference->labels);

  auto audit =
      dp::AuditLedgerReplay((dir / "budget.ledger").string());
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << audit->ToString();
  auto reference_audit = dp::AuditLedgerReplay(
      (fs::temp_directory_path() / "privrec_pipeline_ref" / "budget.ledger")
          .string());
  ASSERT_TRUE(reference_audit.ok());
  EXPECT_EQ(audit->epsilon_spent, reference_audit->epsilon_spent);
  EXPECT_EQ(audit->intents, reference_audit->intents);
}

// A crash between ledger commit and WAL publish mark: the trigger re-arms
// and the next publish is a FRESH accounted charge — at-least-once
// publication, never a double-spend.
TEST(StreamPipeline, CrashBeforePublishMarkReArmsTheTrigger) {
  const fs::path dir = FreshDir("privrec_pipeline_mark");
  stream::StreamPipelineOptions options = SmallPipelineOptions(dir);
  const std::vector<stream::WalRecord> schedule = PipelineSchedule();
  {
    auto opened = stream::StreamPipeline::Open(options);
    ASSERT_TRUE(opened.ok());
    stream::StreamPipeline pipeline = std::move(opened).value();
    bool crashed = false;
    for (int64_t i = 0; i < static_cast<int64_t>(schedule.size()); ++i) {
      ASSERT_TRUE(
          ApplyDelta(&pipeline, schedule[static_cast<size_t>(i)]).ok());
      if (!pipeline.RepublishDue().empty()) {
        // The only WAL append inside Republish is the publish mark, which
        // lands AFTER the ledger commit — arming the first hit here
        // simulates a crash in exactly that window.
        fault::FaultInjector::Instance().ArmNth(
            "stream.wal.append", fault::FaultKind::kIoError, 1);
        auto out = pipeline.Republish(ProbeUsers(), 5);
        fault::FaultInjector::Instance().Reset();
        ASSERT_FALSE(out.ok()) << "mark append fault did not fire";
        crashed = true;
        break;
      }
    }
    ASSERT_TRUE(crashed);
  }

  auto reopened = stream::StreamPipeline::Open(SmallPipelineOptions(dir));
  ASSERT_TRUE(reopened.ok());
  stream::StreamPipeline pipeline = std::move(reopened).value();
  // The ε is committed (no pending intent), but no mark reached the WAL,
  // so the scheduler still wants a publish.
  EXPECT_FALSE(pipeline.HasPendingRelease());
  EXPECT_EQ(pipeline.session().snapshots_processed(), 1);
  EXPECT_FALSE(pipeline.RepublishDue().empty());
  auto out = pipeline.Republish(ProbeUsers(), 5);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->release.resumed_from_intent);
  EXPECT_GT(out->release.epsilon_spent, 0.0);  // a fresh accounted charge

  auto audit = dp::AuditLedgerReplay(options.session.ledger_path);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << audit->ToString();
  EXPECT_EQ(audit->intents, 2);  // both charges audited, no double-spend
}

}  // namespace
}  // namespace privrec
