// Robustness tests for the ingestion layer: strict loads that reject every
// defect class, truncated/empty/BOM/CRLF inputs, counts and sizes checked
// before they size anything, non-finite numbers, injected I/O faults, and
// atomic, durable artifact saves.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/builder.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/fault_injection.h"
#include "community/louvain.h"
#include "community/partition_io.h"
#include "data/export.h"
#include "data/flixster.h"
#include "data/hetrec_lastfm.h"
#include "data/synthetic.h"
#include "graph/graph_io.h"
#include "similarity/common_neighbors.h"
#include "similarity/workload_io.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

class DataRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("privrec_robust_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Writes `content` verbatim (no newline appended — callers control the
  // final byte to exercise truncation heuristics).
  std::string WriteFile(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }

  fs::path dir_;
};

// ------------------------------------------------------------- graph I/O

TEST_F(DataRobustnessTest, StrictSocialLoadRejectsEveryDefectClass) {
  // One file per defect class, each after a valid record; every one is a
  // ParseError naming the file and the defect's physical line.
  const std::vector<std::string> defects = {
      "2 2\n",      // self loop
      "3 -4\n",     // negative id
      "5 six\n",    // non-numeric
      "7\n",        // one field
  };
  for (const std::string& defect : defects) {
    const std::string path =
        WriteFile("social.txt", "# comment\n0 1\n\n" + defect + "1 2\n");
    auto loaded = graph::LoadSocialGraph(path);
    ASSERT_FALSE(loaded.ok()) << defect;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << defect;
    EXPECT_NE(loaded.status().message().find(path + ":4: "),
              std::string::npos)
        << loaded.status().message();
  }
  // A repeated edge is no defect: it loads once.
  auto repeated = graph::LoadSocialGraph(
      WriteFile("social.txt", "0 1\n1 0\n0 1\n1 2\n"));
  ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();
  EXPECT_EQ(repeated->graph.num_edges(), 2);
  EXPECT_EQ(repeated->report.lines_scanned, 4);
}

TEST_F(DataRobustnessTest, StrictSocialLoadFailsOnFirstDefect) {
  const std::string path = WriteFile("social.txt", "0 1\n5 six\n1 2\n");
  auto loaded = graph::LoadSocialGraph(path);  // default strict
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(DataRobustnessTest, StrictSocialLoadRejectsNegativeIds) {
  const std::string path = WriteFile("social.txt", "0 -1\n");
  auto loaded = graph::LoadSocialGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(DataRobustnessTest, TruncatedFinalRecordIsTruncationNotMalformation) {
  // The file ends mid-record with no trailing newline — a short copy, not
  // a malformed source.
  const std::string path = WriteFile("social.txt", "0 1\n1 2\n3");
  auto strict = graph::LoadSocialGraph(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_NE(strict.status().message().find("truncated"), std::string::npos);
}

TEST_F(DataRobustnessTest, CrlfAndBomInputsLoadCleanly) {
  const std::string path = WriteFile(
      "social.txt", "\xEF\xBB\xBF# exported from Windows\r\n0 1\r\n1 2\r\n");
  auto loaded = graph::LoadSocialGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->report.records_loaded, 2);
  EXPECT_EQ(loaded->graph.num_edges(), 2);
}

TEST_F(DataRobustnessTest, EmptyFileLoadsAsEmptyGraph) {
  const std::string path = WriteFile("empty.txt", "");
  auto loaded = graph::LoadSocialGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->report.lines_scanned, 0);
  EXPECT_EQ(loaded->graph.num_nodes(), 0);
}

TEST_F(DataRobustnessTest, StrictPreferenceLoadRejectsBadWeights) {
  for (const char* weight : {"-3.0", "0", "x", "nan", "inf", "-inf"}) {
    const std::string path = WriteFile(
        "prefs.txt", std::string("0 10 2.0\n1 11 ") + weight + "\n");
    auto loaded = graph::LoadPreferenceGraph(path);
    ASSERT_FALSE(loaded.ok()) << weight;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << weight;
  }
  // A repeated pair loads once, with its larger weight; an unweighted
  // line reads as weight 1.
  auto loaded = graph::LoadPreferenceGraph(
      WriteFile("prefs.txt", "0 10 2.0\n0 10 5.0\n2 10\n"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.num_edges(), 2);
  EXPECT_TRUE(loaded->graph.is_weighted());
  EXPECT_DOUBLE_EQ(loaded->graph.max_weight(), 5.0);
}

// ------------------------------------------------------------- faults

TEST_F(DataRobustnessTest, OpenFaultFailsTheLoadWithoutRetrying) {
  const std::string path = WriteFile("social.txt", "0 1\n");
  fault::ScopedFaultInjection scope(
      "graph_io.open", fault::FaultSpec{.kind = fault::FaultKind::kIoError});
  auto loaded = graph::LoadSocialGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(fault::FaultInjector::Instance().HitCount("graph_io.open"), 1);
}

TEST_F(DataRobustnessTest, InjectedShortReadMarksTruncation) {
  const std::string path = WriteFile("social.txt", "0 1\n1 2\n2 3\n");
  fault::ScopedFaultInjection scope;
  fault::FaultInjector::Instance().ArmNth("graph_io.read",
                                          fault::FaultKind::kShortRead, 3);
  auto strict = graph::LoadSocialGraph(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_NE(strict.status().message().find("short read"), std::string::npos);
}

TEST_F(DataRobustnessTest, InjectedAllocFailureIsResourceExhausted) {
  const std::string path = WriteFile("social.txt", "0 1\n");
  fault::ScopedFaultInjection scope(
      "graph_io.alloc",
      fault::FaultSpec{.kind = fault::FaultKind::kBadAlloc});
  auto loaded = graph::LoadSocialGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------------- Last.fm loader

class LastFmRobustnessTest : public DataRobustnessTest {
 protected:
  // A Last.fm-format directory with one defect of every class.
  void WriteCorruptedDataset() {
    WriteFile("user_friends.dat",
              "userID\tfriendID\n"
              "1\t2\n"
              "2\t1\n"
              "3\t3\n"
              "4\tx\n"
              "-5\t6\n"
              "1\t3\n");
    WriteFile("user_artists.dat",
              "userID\tartistID\tweight\n"
              "1\t10\t5\n"
              "1\t10\t7\n"
              "2\t11\t1\n"
              "3\t12\t2\n"
              "9\t13\t4\n"
              "2\tbad\t3\n");
  }
};

TEST_F(LastFmRobustnessTest, StrictLoadReportsWhatThePreprocessingDrops) {
  // friends: 5 rows — 4 edges (1-2 twice loads once) and 1 self loop,
  //          dropped and counted; a '#' line is a comment.
  // artists: 5 rows — 1 below the listen threshold and 1 for a user with
  //          no friendships are filtered, not defects.
  WriteFile("user_friends.dat",
            "userID\tfriendID\n1\t2\n2\t1\n# note\n3\t3\n1\t3\n2\t3\n");
  WriteFile("user_artists.dat",
            "userID\tartistID\tweight\n"
            "1\t10\t5\n1\t10\t7\n2\t11\t1\n3\t12\t2\n9\t13\t4\n");
  auto ds = data::LoadHetRecLastFm(dir_.string());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const LoadReport& r = ds->report;
  EXPECT_EQ(r.lines_scanned, 10);
  EXPECT_EQ(r.records_loaded, 7);  // 4 social rows + 3 preference rows
  EXPECT_EQ(r.skipped_self_loops, 1);
  EXPECT_EQ(ds->social.num_nodes(), 3);       // users 1, 2, 3
  EXPECT_EQ(ds->social.num_edges(), 3);       // 1-2, 1-3, 2-3
  EXPECT_EQ(ds->preferences.num_items(), 2);  // artists 10, 12
  EXPECT_EQ(ds->preferences.num_edges(), 2);
}

TEST_F(LastFmRobustnessTest, StrictLoadRejectsTheCorruptedDataset) {
  WriteCorruptedDataset();
  auto ds = data::LoadHetRecLastFm(dir_.string());
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kParseError);
}

TEST_F(LastFmRobustnessTest, TruncatedArtistsFileIsDetected) {
  WriteFile("user_friends.dat", "userID\tfriendID\n1\t2\n");
  // Final record cut mid-row, no trailing newline.
  WriteFile("user_artists.dat", "userID\tartistID\tweight\n1\t10\t5\n1\t11");
  auto strict = data::LoadHetRecLastFm(dir_.string());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_NE(strict.status().message().find("truncated"), std::string::npos);
}

TEST_F(LastFmRobustnessTest, BomHeaderIsStripped) {
  WriteFile("user_friends.dat", "\xEF\xBB\xBFuserID\tfriendID\n1\t2\n");
  WriteFile("user_artists.dat", "userID\tartistID\tweight\n1\t10\t5\n");
  auto ds = data::LoadHetRecLastFm(dir_.string());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->social.num_edges(), 1);
  EXPECT_EQ(ds->preferences.num_edges(), 1);
}

TEST_F(LastFmRobustnessTest, OpenFaultFailsTheLoadWithoutRetrying) {
  WriteFile("user_friends.dat", "userID\tfriendID\n1\t2\n2\t3\n");
  WriteFile("user_artists.dat", "userID\tartistID\tweight\n1\t10\t5\n");
  fault::ScopedFaultInjection scope;
  fault::FaultInjector::Instance().ArmNth("data.lastfm.open",
                                          fault::FaultKind::kIoError, 1);
  auto ds = data::LoadHetRecLastFm(dir_.string());
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
  EXPECT_EQ(fault::FaultInjector::Instance().HitCount("data.lastfm.open"), 1);
}

// -------------------------------------- workload / partition cache files
//
// The two-phase pipeline caches materialized similarity workloads and
// Louvain partitions on disk (LoadExperimentInputs) and the artifact
// builder consumes them; a corrupted cache must surface as a status error,
// never crash or silently feed a shorter workload into a DP release.

class CacheFileRobustnessTest : public DataRobustnessTest {
 protected:
  // A tiny valid workload file: 3 users, 4 entries.
  std::string WriteWorkloadFile() {
    return WriteFile("workload.tsv",
                     "# privrec workload measure=cn users=3 entries=4 "
                     "max_column_sum=3 max_entry=2\n"
                     "0\t1\t2\n"
                     "0\t2\t1\n"
                     "1\t0\t2\n"
                     "2\t0\t1\n");
  }
  // A tiny valid partition file: 4 nodes in 2 clusters.
  std::string WritePartitionFile() {
    return WriteFile("partition.tsv",
                     "# privrec partition: 4 nodes, 2 clusters\n"
                     "0\t0\n"
                     "1\t0\n"
                     "2\t1\n"
                     "3\t1\n");
  }
};

TEST_F(CacheFileRobustnessTest, WorkloadSaveLoadRoundTripsEntryCount) {
  auto loaded = similarity::LoadWorkload(WriteWorkloadFile(), 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users(), 3);
  EXPECT_EQ(loaded->TotalEntries(), 4);

  const std::string resaved = (dir_ / "resaved.tsv").string();
  ASSERT_TRUE(similarity::SaveWorkload(*loaded, resaved).ok());
  auto again = similarity::LoadWorkload(resaved, 3);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->TotalEntries(), 4);
}

TEST_F(CacheFileRobustnessTest, WorkloadTruncatedAtLineBoundaryIsDetected) {
  // Drop the final entry line — every remaining line parses, so only the
  // header's entries= count can catch the loss.
  const std::string path =
      WriteFile("workload.tsv",
                "# privrec workload measure=cn users=3 entries=4 "
                "max_column_sum=3 max_entry=2\n"
                "0\t1\t2\n"
                "0\t2\t1\n"
                "1\t0\t2\n");
  auto loaded = similarity::LoadWorkload(path, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("truncated workload"),
            std::string::npos);
}

TEST_F(CacheFileRobustnessTest, WorkloadTruncatedMidRecordIsParseError) {
  const std::string path =
      WriteFile("workload.tsv",
                "# privrec workload measure=cn users=3 entries=4 "
                "max_column_sum=3 max_entry=2\n"
                "0\t1\t2\n"
                "0\t2\t1.");  // cut mid-double, no trailing newline
  auto loaded = similarity::LoadWorkload(path, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(CacheFileRobustnessTest, WorkloadBitFlipIsParseErrorNotACrash) {
  // Flip a byte in an id field (digit -> letter) and one in the header.
  const std::string good =
      "# privrec workload measure=cn users=3 entries=4 "
      "max_column_sum=3 max_entry=2\n"
      "0\t1\t2\n0\t2\t1\n1\t0\t2\n2\t0\t1\n";
  for (size_t flip : {size_t(30), size_t(70), good.size() - 2}) {
    std::string bad = good;
    bad[flip] = static_cast<char>(bad[flip] ^ 0x40);
    auto loaded = similarity::LoadWorkload(
        WriteFile("flip_" + std::to_string(flip) + ".tsv", bad), 3);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << flip;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

// A score the engine would refuse (not > 0) is refused at its record,
// with the file and line, before a build could spend noise on it.
TEST_F(CacheFileRobustnessTest, WorkloadScoreNotAboveZeroIsParseError) {
  for (const char* score : {"0", "-1"}) {
    const std::string path = WriteFile(
        "workload.tsv", std::string("# privrec workload measure=cn users=3 "
                                    "entries=4 max_column_sum=3 max_entry=2\n"
                                    "0\t1\t2\n"
                                    "0\t2\t") +
                            score + "\n1\t0\t2\n2\t0\t1\n");
    auto loaded = similarity::LoadWorkload(path, 3);
    ASSERT_FALSE(loaded.ok()) << "score " << score;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(path + ":3"), std::string::npos)
        << loaded.status().message();
    EXPECT_NE(loaded.status().message().find("score is not > 0"),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(CacheFileRobustnessTest, WorkloadShortReadFaultIsTruncation) {
  const std::string path = WriteWorkloadFile();
  fault::ScopedFaultInjection scope;
  fault::FaultInjector::Instance().ArmNth("workload_io.read",
                                          fault::FaultKind::kShortRead, 2);
  auto loaded = similarity::LoadWorkload(path, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("short read"), std::string::npos);
}

TEST_F(CacheFileRobustnessTest, WorkloadOpenAndReadFaultsAreIoErrors) {
  const std::string path = WriteWorkloadFile();
  {
    fault::ScopedFaultInjection scope(
        "workload_io.open",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    auto loaded = similarity::LoadWorkload(path, 3);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  {
    fault::ScopedFaultInjection scope(
        "workload_io.read",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    auto loaded = similarity::LoadWorkload(path, 3);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  // Disarmed again: the same file loads cleanly.
  auto loaded = similarity::LoadWorkload(path, 3);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(CacheFileRobustnessTest, PartitionTruncatedAtLineBoundaryIsDetected) {
  const std::string path =
      WriteFile("partition.tsv",
                "# privrec partition: 4 nodes, 2 clusters\n"
                "0\t0\n"
                "1\t0\n"
                "2\t1\n");  // node 3 lost to truncation
  auto loaded = community::LoadPartition(path, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("truncated partition"),
            std::string::npos);
}

TEST_F(CacheFileRobustnessTest, PartitionBitFlipIsParseErrorNotACrash) {
  const std::string good =
      "# privrec partition: 4 nodes, 2 clusters\n"
      "0\t0\n1\t0\n2\t1\n3\t1\n";
  // Flip bytes across header and body (digit -> letter / '#' -> 'c').
  for (size_t flip : {size_t(0), size_t(21), size_t(41), good.size() - 2}) {
    std::string bad = good;
    bad[flip] = static_cast<char>(bad[flip] ^ 0x40);
    auto loaded = community::LoadPartition(
        WriteFile("flip_" + std::to_string(flip) + ".tsv", bad), 4);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << flip;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "flip at byte " << flip;
  }
}

TEST_F(CacheFileRobustnessTest, PartitionShortReadAndIoFaultsSurface) {
  const std::string path = WritePartitionFile();
  {
    fault::ScopedFaultInjection scope;
    fault::FaultInjector::Instance().ArmNth("partition_io.read",
                                            fault::FaultKind::kShortRead, 3);
    auto loaded = community::LoadPartition(path, 4);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("short read"),
              std::string::npos);
  }
  {
    fault::ScopedFaultInjection scope(
        "partition_io.open",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    auto loaded = community::LoadPartition(path, 4);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  auto loaded = community::LoadPartition(path, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 4);
}

// ------------------------------------ counts and numbers a loader trusts

// Lines of `path`, without their newlines.
std::vector<std::string> ReadLines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteLines(const fs::path& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
}

TEST_F(DataRobustnessTest, TruncatedExportIsParseErrorNamingTheFile) {
  // Each edge file cut to the first half of its lines still parses line
  // by line; only the counts in its header can tell.
  for (const char* name : {"social.tsv", "preferences.tsv"}) {
    const fs::path dir = dir_ / "export";
    ASSERT_TRUE(data::SaveDataset(data::MakeTinyDataset(), dir.string()).ok());
    std::vector<std::string> lines = ReadLines(dir / name);
    lines.resize(lines.size() / 2);
    WriteLines(dir / name, lines);
    auto loaded = data::LoadDataset(dir.string());
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(name), std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(DataRobustnessTest, OversizedIdsAndCountsAreParseErrors) {
  // Each number would size an allocation if it were trusted.
  auto partition = community::LoadPartition(
      WriteFile("partition.tsv", "0\t0\n99999999999999\t0\n"), 2);
  ASSERT_FALSE(partition.ok());
  EXPECT_EQ(partition.status().code(), StatusCode::kParseError);

  auto workload = similarity::LoadWorkload(
      WriteFile("workload.tsv",
                "# privrec workload measure=cn users=99999999999999 "
                "entries=0 max_column_sum=0 max_entry=0\n"),
      3);
  ASSERT_FALSE(workload.ok());
  EXPECT_EQ(workload.status().code(), StatusCode::kParseError);

  const fs::path dir = dir_ / "export";
  ASSERT_TRUE(data::SaveDataset(data::MakeTinyDataset(), dir.string()).ok());
  std::vector<std::string> meta = ReadLines(dir / "meta.txt");
  for (std::string& line : meta) {
    if (line.starts_with("num_users")) line = "num_users\t99999999999999";
  }
  WriteLines(dir / "meta.txt", meta);
  auto dataset = data::LoadDataset(dir.string());
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kParseError);
  EXPECT_NE(dataset.status().message().find("social.tsv"), std::string::npos)
      << dataset.status().message();
}

TEST_F(DataRobustnessTest, NonFiniteNumbersAreParseErrors) {
  for (const std::string bad : {"nan", "inf"}) {
    auto prefs = graph::LoadPreferenceGraph(
        WriteFile("prefs.txt", "0 1 2\n1 2 " + bad + "\n"));
    ASSERT_FALSE(prefs.ok()) << bad;
    EXPECT_EQ(prefs.status().code(), StatusCode::kParseError);

    data::Dataset rated;
    rated.name = "rated";
    rated.social = graph::SocialGraph::FromEdges(2, {{0, 1}});
    rated.preferences = graph::PreferenceGraph::FromWeightedEdges(
        2, 2, {{0, 0, 3.5}, {1, 1, 2.0}});
    const fs::path dir = dir_ / "export";
    ASSERT_TRUE(data::SaveDataset(rated, dir.string()).ok());
    std::vector<std::string> lines = ReadLines(dir / "preferences.tsv");
    ASSERT_EQ(lines[1], "0\t0\t3.5");
    lines[1] = "0\t0\t" + bad;
    WriteLines(dir / "preferences.tsv", lines);
    auto dataset = data::LoadDataset(dir.string());
    ASSERT_FALSE(dataset.ok()) << bad;
    EXPECT_EQ(dataset.status().code(), StatusCode::kParseError);

    WriteFile("links.txt", "1\t2\n");
    WriteFile("ratings.txt", "1\t10\t4\n2\t10\t" + bad + "\n");
    for (bool binarize : {true, false}) {
      data::FlixsterOptions options;
      options.binarize = binarize;
      auto flixster = data::LoadFlixster(dir_.string(), options);
      ASSERT_FALSE(flixster.ok()) << bad;
      EXPECT_EQ(flixster.status().code(), StatusCode::kParseError);
    }

    auto workload = similarity::LoadWorkload(
        WriteFile("workload.tsv",
                  "# privrec workload measure=cn users=2 entries=1 "
                  "max_column_sum=1 max_entry=1\n0\t1\t" + bad + "\n"),
        2);
    ASSERT_FALSE(workload.ok()) << bad;
    EXPECT_EQ(workload.status().code(), StatusCode::kParseError);
  }
}

// ------------------------------------------------- atomic artifact saves

// SaveShardedArtifact publishes every file via write-temp-then-rename and
// commits with the manifest's rename, the last of K + 1. A crash
// (simulated by a fault at the manifest's hit, after every new shard is
// already in place) must leave the previous artifact loadable as it was,
// and no temp debris a reloader could mistake for a release.
class ArtifactSaveRobustnessTest : public DataRobustnessTest {
 protected:
  serving::ArtifactModel BuildModel(uint64_t seed) {
    artifact::ModelArtifactBuilder builder(&social_, &prefs_);
    builder.SetPartition(&partition_);
    builder.SetWorkload(&workload_);
    artifact::BuildOptions build_options;
    build_options.epsilon = 0.9;
    build_options.seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(*model);
  }

  std::string Manifest() const { return (dir_ / "model.pvram").string(); }

  Status Save(uint64_t seed) {
    return serving::SaveShardedArtifact(BuildModel(seed), Manifest(),
                                        {.shards = kShards});
  }

  // The seed of the artifact on disk, or the load error.
  Result<uint64_t> LoadedSeed() const {
    auto engine = serving::ServingEngine::Load(Manifest());
    if (!engine.ok()) return engine.status();
    return engine->model().provenance.seed;
  }

  // The top-3 lists the artifact on disk serves to every user.
  std::vector<core::RecommendationList> ServedLists() const {
    auto engine = serving::ServingEngine::Load(Manifest());
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return {};
    serving::ServeSpec spec;
    spec.epsilon = 0.9;
    auto server = serving::MakeServeRecommender(&*engine, spec);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!server.ok()) return {};
    return (*server)->Recommend({0, 1, 2, 3, 4}, 3).lists;
  }

  // Every file in the directory besides the manifest is a shard the
  // manifest names: no stale generation, no temp file.
  void ExpectOnlyNamedFiles() const {
    auto mapped = serving::MappedArtifact::Open(Manifest(), {});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    std::vector<std::string> expected = {"model.pvram"};
    for (const serving::ShardTableEntry& e : (*mapped)->shard_table()) {
      expected.push_back(e.file);
    }
    std::vector<std::string> found;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      found.push_back(entry.path().filename().string());
    }
    std::sort(expected.begin(), expected.end());
    std::sort(found.begin(), found.end());
    EXPECT_EQ(found, expected);
  }

  // Two clusters, so two shards: the manifest is file K + 1 = 3.
  static constexpr int64_t kShards = 2;
  static constexpr int64_t kManifestHit = kShards + 1;

  graph::SocialGraph social_ =
      graph::SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  graph::PreferenceGraph prefs_ = graph::PreferenceGraph::FromEdges(
      5, 3, {{0, 0}, {1, 0}, {2, 1}, {3, 2}});
  similarity::SimilarityWorkload workload_ =
      similarity::SimilarityWorkload::Compute(social_,
                                              similarity::CommonNeighbors());
  community::Partition partition_{{0, 0, 0, 1, 1}};
};

TEST_F(ArtifactSaveRobustnessTest, SuccessfulSaveLeavesNoTempFile) {
  ASSERT_TRUE(Save(5).ok());
  EXPECT_EQ(LoadedSeed().value(), 5u);
  ExpectOnlyNamedFiles();

  // An overwrite replaces every shard of the old generation.
  ASSERT_TRUE(Save(6).ok());
  EXPECT_EQ(LoadedSeed().value(), 6u);
  ExpectOnlyNamedFiles();
}

TEST_F(ArtifactSaveRobustnessTest, CrashBeforeRenameKeepsOldArtifact) {
  ASSERT_TRUE(Save(5).ok());

  // The overwrite "crashes" after the new shards are in place and the
  // manifest's temp file is fully written, before its rename: the
  // published artifact must still be generation 5.
  fault::ScopedFaultInjection scope(
      "artifact.rename",
      fault::FaultSpec{.kind = fault::FaultKind::kIoError,
                       .first_hit = kManifestHit});
  Status failed = Save(6);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_FALSE(fs::exists(Manifest() + ".tmp"));

  Result<uint64_t> survivor = LoadedSeed();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(*survivor, 5u);
}

TEST_F(ArtifactSaveRobustnessTest, SyncFaultKeepsOldArtifactServing) {
  ASSERT_TRUE(Save(5).ok());
  const std::vector<core::RecommendationList> before = ServedLists();
  ASSERT_FALSE(before.empty());

  // The manifest's fsync fails after every new shard is durable: the save
  // reports it, and the previous artifact loads and serves as before.
  fault::ScopedFaultInjection scope(
      "artifact.sync",
      fault::FaultSpec{.kind = fault::FaultKind::kIoError,
                       .first_hit = kManifestHit});
  Status failed = Save(6);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_FALSE(fs::exists(Manifest() + ".tmp"));
  EXPECT_EQ(fault::FaultInjector::Instance().HitCount("artifact.sync"),
            kManifestHit);

  Result<uint64_t> survivor = LoadedSeed();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(*survivor, 5u);
  EXPECT_EQ(ServedLists(), before);
}

TEST_F(ArtifactSaveRobustnessTest, WriteFaultNeverTouchesDestination) {
  ASSERT_TRUE(Save(5).ok());

  fault::ScopedFaultInjection scope(
      "artifact.write",
      fault::FaultSpec{.kind = fault::FaultKind::kIoError,
                       .first_hit = kManifestHit});
  ASSERT_FALSE(Save(6).ok());
  EXPECT_FALSE(fs::exists(Manifest() + ".tmp"));
  Result<uint64_t> survivor = LoadedSeed();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(*survivor, 5u);
}

}  // namespace
}  // namespace privrec
