// Tests for the reconstruction kernels (src/kernels/): bit-identity of
// the dispatched AccumulateRows paths against their scalar references at
// every SIMD tail length, f32 widening exactness, SelectTopN equivalence
// with the historical partial_sort under the shared ranking order, and
// FirstArgMax's dispatched path against its scalar reference and
// std::max_element. These are the pins behind the layer's determinism
// contract: the dispatch level may only change wall-clock, never a single
// bit.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/accumulate.h"
#include "kernels/dispatch.h"
#include "kernels/select.h"

namespace privrec {
namespace {

// Deterministic row data with sign changes, magnitude spread, and exact
// ties — the shapes where FP reassociation or comparator drift would
// show first.
std::vector<double> RandomRow(int64_t items, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> row(static_cast<size_t>(items));
  for (auto& v : row) {
    v = unit(rng) * (rng() % 7 == 0 ? 1e6 : 1.0);
    if (rng() % 11 == 0) v = 0.25;  // exact repeats → utility ties
  }
  return row;
}

struct AccumulateCase {
  int64_t rows;
  int64_t items;
};

// Tail lengths 0..3 around the 4-wide AVX2 lanes, both below and across
// the kAccumulateBlockItems cache-block boundary; row counts cover the
// no-op, the singleton, and a multi-row gather.
std::vector<AccumulateCase> AccumulateCases() {
  std::vector<AccumulateCase> cases;
  const std::vector<int64_t> item_counts = {
      0,  1,  2,  3,  4,  5,  6,  7,  8,  15,
      kernels::kAccumulateBlockItems - 1, kernels::kAccumulateBlockItems,
      kernels::kAccumulateBlockItems + 1, kernels::kAccumulateBlockItems + 2,
      kernels::kAccumulateBlockItems + 3,
      2 * kernels::kAccumulateBlockItems + 5};
  for (int64_t rows : {0, 1, 2, 3, 9}) {
    for (int64_t items : item_counts) cases.push_back({rows, items});
  }
  return cases;
}

TEST(KernelDispatchTest, LevelAndNameAreStable) {
  const kernels::DispatchLevel level = kernels::ActiveDispatchLevel();
  EXPECT_EQ(level, kernels::ActiveDispatchLevel());  // cached, no flapping
  const char* name = kernels::DispatchLevelName(level);
  EXPECT_TRUE(std::string(name) == "scalar" || std::string(name) == "avx2")
      << name;
  EXPECT_STREQ(kernels::DispatchLevelName(kernels::DispatchLevel::kScalar),
               "scalar");
  EXPECT_STREQ(kernels::DispatchLevelName(kernels::DispatchLevel::kAvx2),
               "avx2");
}

TEST(AccumulateRowsTest, DispatchedMatchesScalarBitwiseAtEveryTail) {
  for (const AccumulateCase& c : AccumulateCases()) {
    std::vector<std::vector<double>> storage;
    std::vector<const double*> rows;
    std::vector<double> scales;
    for (int64_t k = 0; k < c.rows; ++k) {
      storage.push_back(RandomRow(
          c.items, 1000 + static_cast<uint64_t>(k) * 131 +
                       static_cast<uint64_t>(c.items)));
      rows.push_back(storage.back().data());
      scales.push_back(0.37 * static_cast<double>(k + 1) -
                       static_cast<double>(c.rows) / 3.0);
    }
    // Non-zero initial accumulator: the kernel must add into out, not
    // overwrite it.
    std::vector<double> expected = RandomRow(c.items, 7);
    std::vector<double> actual = expected;
    kernels::AccumulateRowsScalar(rows.data(), scales.data(), c.rows,
                                  c.items, expected.data());
    kernels::AccumulateRows(rows.data(), scales.data(), c.rows, c.items,
                            actual.data());
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      // Bitwise, not approximate: the determinism contract of the layer.
      EXPECT_EQ(expected[i], actual[i])
          << "rows=" << c.rows << " items=" << c.items << " i=" << i;
    }
  }
}

TEST(AccumulateRowsTest, F32DispatchedMatchesScalarBitwise) {
  for (const AccumulateCase& c : AccumulateCases()) {
    std::vector<std::vector<float>> storage;
    std::vector<const float*> rows;
    std::vector<double> scales;
    for (int64_t k = 0; k < c.rows; ++k) {
      std::vector<double> wide = RandomRow(
          c.items, 5000 + static_cast<uint64_t>(k) * 17 +
                       static_cast<uint64_t>(c.items));
      std::vector<float> narrow(wide.size());
      for (size_t i = 0; i < wide.size(); ++i) {
        narrow[i] = static_cast<float>(wide[i]);
      }
      storage.push_back(std::move(narrow));
      rows.push_back(storage.back().data());
      scales.push_back(1.0 / static_cast<double>(k + 2));
    }
    std::vector<double> expected(static_cast<size_t>(c.items), 0.0);
    std::vector<double> actual(static_cast<size_t>(c.items), 0.0);
    kernels::AccumulateRowsF32Scalar(rows.data(), scales.data(), c.rows,
                                     c.items, expected.data());
    kernels::AccumulateRowsF32(rows.data(), scales.data(), c.rows, c.items,
                               actual.data());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], actual[i])
          << "rows=" << c.rows << " items=" << c.items << " i=" << i;
    }
  }
}

TEST(AccumulateRowsTest, EmptyRowSetIsANoOp) {
  std::vector<double> out = RandomRow(37, 3);
  const std::vector<double> before = out;
  kernels::AccumulateRows(nullptr, nullptr, 0, 37, out.data());
  EXPECT_EQ(out, before);
  kernels::AccumulateRowsF32(nullptr, nullptr, 0, 37, out.data());
  EXPECT_EQ(out, before);
}

TEST(AccumulateRowsTest, SingletonRowIsAScaledCopy) {
  const std::vector<double> row = RandomRow(129, 11);
  const double scale = -2.5;
  const double* rows[] = {row.data()};
  std::vector<double> out(row.size(), 0.0);
  kernels::AccumulateRows(rows, &scale, 1, 129, out.data());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(out[i], scale * row[i]) << i;
  }
}

// ---------------------------------------------------------------- select

struct Entry {
  int64_t item = 0;
  double utility = 0.0;
  bool operator==(const Entry& other) const {
    return item == other.item && utility == other.utility;
  }
};

std::vector<Entry> RandomEntries(int64_t n, uint64_t seed) {
  std::vector<double> values = RandomRow(n, seed);
  std::vector<Entry> entries(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    entries[static_cast<size_t>(i)] = {i, values[static_cast<size_t>(i)]};
  }
  // Shuffle item order so index-ascending tie-breaks are actually
  // exercised rather than falling out of the input order.
  std::mt19937_64 rng(seed ^ 0xabcdef);
  std::shuffle(entries.begin(), entries.end(), rng);
  return entries;
}

TEST(SelectTopNTest, MatchesPartialSortIncludingTies) {
  for (int64_t size : {0, 1, 2, 5, 33, 257}) {
    for (int64_t n : {0, 1, 3, 10, 33, 500}) {
      std::vector<Entry> input =
          RandomEntries(size, static_cast<uint64_t>(size * 1000 + n));
      // Historical reference: full partial_sort + truncate.
      std::vector<Entry> reference = input;
      const auto keep = std::min<int64_t>(n, size);
      std::partial_sort(reference.begin(),
                        reference.begin() + std::max<int64_t>(keep, 0),
                        reference.end(), kernels::RankOrderBetter{});
      reference.resize(static_cast<size_t>(std::max<int64_t>(keep, 0)));
      std::vector<Entry> actual = input;
      kernels::SelectTopNInPlace(actual, n);
      EXPECT_EQ(actual, reference) << "size=" << size << " n=" << n;
    }
  }
}

TEST(SelectTopNTest, DenseIndicesMatchMaterializedSelection)  {
  for (int64_t size : {0, 1, 2, 7, 129, 1024}) {
    for (int64_t n : {0, 1, 5, 50, 2000}) {
      std::vector<double> values =
          RandomRow(size, static_cast<uint64_t>(size * 31 + n));
      std::vector<Entry> reference(static_cast<size_t>(size));
      for (int64_t i = 0; i < size; ++i) {
        reference[static_cast<size_t>(i)] = {i,
                                             values[static_cast<size_t>(i)]};
      }
      kernels::SelectTopNInPlace(reference, n);
      std::vector<int64_t> indices;
      kernels::SelectTopNIndicesDense(values.data(), size, n, &indices);
      ASSERT_EQ(indices.size(), reference.size())
          << "size=" << size << " n=" << n;
      for (size_t i = 0; i < indices.size(); ++i) {
        EXPECT_EQ(indices[i], reference[i].item)
            << "size=" << size << " n=" << n << " rank=" << i;
      }
    }
  }
}

TEST(SelectTopNTest, AllTiedValuesRankByItemAscending) {
  std::vector<double> values(64, 0.5);
  std::vector<int64_t> indices;
  kernels::SelectTopNIndicesDense(values.data(), 64, 10, &indices);
  ASSERT_EQ(indices.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(indices[static_cast<size_t>(i)], i);
}

// FirstArgMax on both paths returns std::max_element's index.
void ExpectFirstArgMax(const std::vector<double>& values,
                       const std::string& label) {
  const auto count = static_cast<int64_t>(values.size());
  const int64_t expected =
      std::max_element(values.begin(), values.end()) - values.begin();
  EXPECT_EQ(kernels::FirstArgMaxScalar(values.data(), count), expected)
      << label << " count=" << count;
  EXPECT_EQ(kernels::FirstArgMax(values.data(), count), expected)
      << label << " count=" << count;
}

// Every length mod 4, below, at and past one and several lanes, with the
// maximum anywhere: in a full lane, in the tail, first and last.
TEST(FirstArgMaxTest, DispatchedMatchesScalarAtEveryLength) {
  for (int64_t count = 1; count <= 41; ++count) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const uint64_t row_seed = seed * 100 + static_cast<uint64_t>(count);
      ExpectFirstArgMax(RandomRow(count, row_seed), "random");
    }
    for (int64_t at = 0; at < count; ++at) {
      std::vector<double> values(static_cast<size_t>(count), -1.0);
      values[static_cast<size_t>(at)] = 2.0;
      ExpectFirstArgMax(values, "single max at " + std::to_string(at));
    }
  }
}

// Equal maxima go to the lower index, whichever lanes hold them; a -0.0
// and a +0.0 are equal, so the first zero wins either way round.
TEST(FirstArgMaxTest, TiesGoToTheFirstIndex) {
  for (int64_t count = 2; count <= 19; ++count) {
    for (int64_t first = 0; first < count; ++first) {
      for (int64_t second = first + 1; second < count; ++second) {
        std::vector<double> values(static_cast<size_t>(count), 0.5);
        values[static_cast<size_t>(first)] = 3.0;
        values[static_cast<size_t>(second)] = 3.0;
        ExpectFirstArgMax(values, "tie " + std::to_string(first) + "," +
                                      std::to_string(second));
        EXPECT_EQ(kernels::FirstArgMax(values.data(), count), first);
      }
    }
    std::vector<double> zeros(static_cast<size_t>(count), -1.0);
    zeros[static_cast<size_t>(count / 2)] = -0.0;
    zeros[static_cast<size_t>(count - 1)] = 0.0;
    ExpectFirstArgMax(zeros, "-0.0 then +0.0");
    std::swap(zeros[static_cast<size_t>(count / 2)],
              zeros[static_cast<size_t>(count - 1)]);
    ExpectFirstArgMax(zeros, "+0.0 then -0.0");
  }
}

// Best-first marks taken blocks -inf: such entries never win over a
// finite value, and a run of nothing else returns its first index.
TEST(FirstArgMaxTest, MinusInfinityEntriesAndAllMinusInfinity) {
  constexpr double kMinusInf = -std::numeric_limits<double>::infinity();
  for (int64_t count = 1; count <= 21; ++count) {
    std::vector<double> values =
        RandomRow(count, 900 + static_cast<uint64_t>(count));
    for (size_t i = 0; i < values.size(); i += 2) values[i] = kMinusInf;
    ExpectFirstArgMax(values, "every other -inf");
    std::vector<double> all(static_cast<size_t>(count), kMinusInf);
    ExpectFirstArgMax(all, "all -inf");
    EXPECT_EQ(kernels::FirstArgMax(all.data(), count), 0);
    all.back() = -1e300;
    ExpectFirstArgMax(all, "all -inf but the last");
  }
}

}  // namespace
}  // namespace privrec
