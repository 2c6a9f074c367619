// Unit tests for src/common: the record reader, Status/Result, Rng
// distributions, statistics helpers, string utilities and the flag parser.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/record_reader.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace privrec {
namespace {

// ---------------------------------------------------------- RecordReader

class RecordReaderTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }

  // Writes `bytes` verbatim (no newline appended).
  const std::string& Write(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
    return path_;
  }

  std::string path_ =
      (std::filesystem::temp_directory_path() / "privrec_record_reader.txt")
          .string();
};

TEST_F(RecordReaderTest, StripsBomAndCrAndSkipsBlanksAndComments) {
  auto reader = RecordReader::Open(
      Write("\xEF\xBB\xBF# graph: 3 nodes, 2 edges\r\n\r\n0 1\r\n"
            "# note\n  1\t2  \n"),
      "test_reader");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->header(), "# graph: 3 nodes, 2 edges");
  int64_t count = 0;
  ASSERT_TRUE(reader->HeaderCount("nodes", &count));
  EXPECT_EQ(count, 3);
  ASSERT_TRUE(reader->HeaderCount("edges", &count));
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(reader->HeaderCount("items", &count));

  ASSERT_TRUE(reader->Next(2));
  EXPECT_EQ(reader->field(0), "0");
  EXPECT_EQ(reader->field(1), "1");
  ASSERT_TRUE(reader->Next(2));
  ASSERT_EQ(reader->num_fields(), 2u);
  EXPECT_EQ(reader->field(0), "1");
  EXPECT_EQ(reader->field(1), "2");
  EXPECT_FALSE(reader->Next(2));
  EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();
  EXPECT_EQ(reader->records(), 2);
}

TEST_F(RecordReaderTest, FirstLineRecordIsNotAHeader) {
  auto reader = RecordReader::Open(Write("0 1\n1 2\n"), "test_reader");
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->header().empty());
  EXPECT_TRUE(reader->Next(2));
  EXPECT_EQ(reader->field(0), "0");
  EXPECT_TRUE(reader->Next(2));
  EXPECT_FALSE(reader->Next(2));
  EXPECT_TRUE(reader->status().ok());
}

TEST_F(RecordReaderTest, ErrorsNameTheFileAndPhysicalLine) {
  auto reader =
      RecordReader::Open(Write("# header\n0 1\n\n# note\n5\n"), "test_reader");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->Next(2));
  EXPECT_EQ(reader->Error("bad id").message(), path_ + ":2: bad id");
  EXPECT_FALSE(reader->Next(2));
  EXPECT_EQ(reader->status().code(), StatusCode::kParseError);
  EXPECT_EQ(reader->status().message(),
            path_ + ":5: expected 2 fields, found 1");
}

TEST_F(RecordReaderTest, DefectOnAnUnterminatedFinalLineReadsAsTruncation) {
  auto reader = RecordReader::Open(Write("0 1\n2"), "test_reader");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->Next(2));
  EXPECT_EQ(reader->Error("x").message().find("truncated"),
            std::string::npos);
  EXPECT_FALSE(reader->Next(2));
  EXPECT_EQ(reader->status().code(), StatusCode::kParseError);
  EXPECT_NE(reader->status().message().find("(file appears truncated)"),
            std::string::npos);
}

TEST_F(RecordReaderTest, FaultsAtOpenAndReadAreTyped) {
  Write("0 1\n1 2\n2 3\n");
  {
    fault::ScopedFaultInjection scope(
        "test_reader.open",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    EXPECT_EQ(RecordReader::Open(path_, "test_reader").status().code(),
              StatusCode::kIoError);
  }
  {
    fault::ScopedFaultInjection scope(
        "test_reader.read",
        fault::FaultSpec{.kind = fault::FaultKind::kShortRead,
                         .first_hit = 2});
    auto reader = RecordReader::Open(path_, "test_reader");
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader->Next(2));
    EXPECT_FALSE(reader->Next(2));
    EXPECT_EQ(reader->status().code(), StatusCode::kParseError);
    EXPECT_EQ(reader->status().message(),
              path_ + ":2: file truncated (short read)");
  }
  {
    fault::ScopedFaultInjection scope(
        "test_reader.read",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    EXPECT_EQ(RecordReader::Open(path_, "test_reader").status().code(),
              StatusCode::kIoError);
  }
  EXPECT_EQ(RecordReader::Open(path_ + ".missing", "test_reader")
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST(RecordReaderParseTest, IdsAreNonNegativeAndValuesFinite) {
  int64_t id = 0;
  EXPECT_TRUE(ParseId("7", &id));
  EXPECT_EQ(id, 7);
  EXPECT_TRUE(ParseId("99999999999999", &id));
  EXPECT_FALSE(ParseId("-1", &id));
  EXPECT_FALSE(ParseId("1.5", &id));
  double value = 0.0;
  EXPECT_TRUE(ParseFinite("2.5", &value));
  EXPECT_EQ(value, 2.5);
  EXPECT_TRUE(ParseFinite("-1", &value));
  EXPECT_FALSE(ParseFinite("nan", &value));
  EXPECT_FALSE(ParseFinite("inf", &value));
  EXPECT_FALSE(ParseFinite("-inf", &value));
  EXPECT_FALSE(ParseFinite("1e999", &value));
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllCodeNamesAreDistinct) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kIoError,
        StatusCode::kParseError, StatusCode::kInternal,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded}) {
    names.insert(StatusCodeName(code));
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(StatusTest, DeadlineExceededFactory) {
  Status s = Status::DeadlineExceeded("too slow");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DEADLINE_EXCEEDED: too slow");
}

TEST(StatusTest, ResourceExhaustedFactory) {
  Status s = Status::ResourceExhausted("budget gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: budget gone");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.Fork(5);
  Rng child2 = Rng(7).Fork(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child1.Next(), child2.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    uint64_t x = rng.UniformInt(17);
    EXPECT_LT(x, 17u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntSignedRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.UniformDouble());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMoments) {
  Rng rng(16);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_GT(stats.min(), 0.0);
}

TEST(RngTest, LaplaceMomentsMatchTheory) {
  // Lap(b) has mean 0 and variance 2b^2 — the calibration Theorem 1 relies
  // on.
  Rng rng(17);
  const double b = 1.5;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Laplace(b));
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.variance(), 2.0 * b * b, 0.15);
}

TEST(RngTest, LaplaceIsSymmetric) {
  Rng rng(18);
  int positive = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Laplace(1.0) > 0) ++positive;
  }
  EXPECT_NEAR(static_cast<double>(positive) / kTrials, 0.5, 0.01);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(20);
  int64_t first = 0;
  int64_t total = 50000;
  for (int64_t i = 0; i < total; ++i) {
    if (rng.Zipf(1000, 1.1) == 0) ++first;
  }
  // Rank 0 should carry far more than the uniform share of 1/1000.
  EXPECT_GT(first, total / 100);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(21);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Zipf(37, 0.8), 37u);
  }
}

TEST(RngTest, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(22);
  std::vector<int64_t> counts(10, 0);
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.Zipf(10, 0.0)];
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.1, 0.01);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(24);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t x : sample) EXPECT_LT(x, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(25);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SplitMix64Test, IsDeterministicAndMixing) {
  EXPECT_EQ(SplitMix64(1), SplitMix64(1));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
  // Single-bit input flips should flip many output bits.
  uint64_t d = SplitMix64(0) ^ SplitMix64(1);
  EXPECT_GT(__builtin_popcountll(d), 16);
}

// ---------------------------------------------------------------- Stats

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);    // bin 0
  h.Add(9.99);   // bin 9
  h.Add(-5.0);   // clamped to bin 0
  h.Add(42.0);   // clamped to bin 9
  EXPECT_EQ(h.bin_count(0), 2);
  EXPECT_EQ(h.bin_count(9), 2);
  EXPECT_EQ(h.total(), 4);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.5);
}

// ---------------------------------------------------------- string_util

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitWhitespaceDropsRuns) {
  auto parts = SplitWhitespace("  a\t\tb  c\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\r\n"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringUtilTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.0junk", &v));
}

TEST(StringUtilTest, JoinAndStartsWith) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog", "--trials=5", "--eps=0.5", "--name=x",
                        "--fast"};
  FlagParser flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 1), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 1.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_TRUE(flags.Validate());
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 7), 7);
  EXPECT_TRUE(flags.Validate());
}

TEST(FlagsTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.Validate());
}

TEST(FlagsTest, RejectsMalformedInt) {
  const char* argv[] = {"prog", "--trials=abc"};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 3), 3);
  EXPECT_FALSE(flags.Validate());
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("allocaton", "allocation"), 1);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
}

TEST(FlagsTest, SuggestsCloseKnownFlagForTypo) {
  // The classic silent-misconfiguration bug: --allocaton=geometric parses
  // fine, matches nothing, and the program runs with the default policy.
  const char* argv[] = {"prog", "--allocaton=geometric"};
  FlagParser flags(2, const_cast<char**>(argv));
  flags.GetString("allocation", "uniform");
  flags.GetInt("snapshots", 10);
  EXPECT_EQ(flags.SuggestionFor("allocaton"), "allocation");
  EXPECT_FALSE(flags.Validate());
}

TEST(FlagsTest, NoSuggestionWhenNothingIsClose) {
  const char* argv[] = {"prog", "--zzzqqq=1"};
  FlagParser flags(2, const_cast<char**>(argv));
  flags.GetInt("trials", 3);
  EXPECT_EQ(flags.SuggestionFor("zzzqqq"), "");
  EXPECT_FALSE(flags.Validate());
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, ElapsedIsMonotonicAndResets) {
  WallTimer timer;
  double t1 = timer.ElapsedSeconds();
  double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  // Millis and seconds are separate clock reads, so only the unit
  // relation holds: millis of a later read >= 1e3 * seconds of an
  // earlier one.
  EXPECT_GE(timer.ElapsedMillis(), t2 * 1e3);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 60.0);
}

// ------------------------------------------------------- More statistics

TEST(StatsTest, HistogramBinsAndClamps) {
  Histogram hist(0.0, 10.0, 5);  // bins of width 2
  hist.Add(1.0);   // bin 0
  hist.Add(3.0);   // bin 1
  hist.Add(9.9);   // bin 4
  hist.Add(-5.0);  // clamped into bin 0
  hist.Add(42.0);  // clamped into bin 4
  EXPECT_EQ(hist.num_bins(), 5);
  EXPECT_EQ(hist.total(), 5);
  EXPECT_EQ(hist.bin_count(0), 2);
  EXPECT_EQ(hist.bin_count(1), 1);
  EXPECT_EQ(hist.bin_count(2), 0);
  EXPECT_EQ(hist.bin_count(4), 2);
  EXPECT_DOUBLE_EQ(hist.Fraction(0), 0.4);
}

// ----------------------------------------------------------------- crc32

// Bit-at-a-time reference, independent of the production tables and SIMD
// folding. Any divergence between the fast paths and the mathematical
// definition of CRC-32 (reflected 0xEDB88320, pre/post inversion) fails
// here before it can corrupt an artifact CRC in the field.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size,
                        uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAcrossSizesAndSeeds) {
  // Sizes straddle every dispatch boundary: the byte loop (<8), the
  // slicing-by-8 loop, and the 64-byte-block SIMD fold with all possible
  // tail lengths. Data and seeds are deterministic pseudo-random.
  Rng rng(20260808);
  std::vector<unsigned char> buf(4096 + 63);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  for (size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{63}, size_t{64}, size_t{65}, size_t{127},
                      size_t{128}, size_t{191}, size_t{192}, size_t{255},
                      size_t{256}, size_t{1023}, size_t{1024}, size_t{4096},
                      buf.size()}) {
    ASSERT_LE(size, buf.size());
    for (uint32_t seed : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
      EXPECT_EQ(Crc32(buf.data(), size, seed),
                ReferenceCrc32(buf.data(), size, seed))
          << "size=" << size << " seed=" << seed;
    }
  }
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  Rng rng(77);
  std::vector<unsigned char> buf(777);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split : {size_t{1}, size_t{64}, size_t{100}, size_t{640}}) {
    const uint32_t first = Crc32(buf.data(), split);
    const uint32_t chained = Crc32(buf.data() + split, buf.size() - split,
                                   first);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32Test, UnalignedBuffersMatchAlignedResults) {
  // The mmap reader hands Crc32 section payloads at 64-byte-aligned
  // offsets, but nothing in the contract requires alignment; make sure
  // the SIMD path's unaligned loads really are unaligned-safe.
  std::vector<unsigned char> backing(512 + 16);
  Rng rng(5150);
  for (auto& b : backing) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    EXPECT_EQ(Crc32(backing.data() + offset, 512),
              ReferenceCrc32(backing.data() + offset, 512, 0))
        << "offset=" << offset;
  }
}

}  // namespace
}  // namespace privrec
