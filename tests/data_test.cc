// Tests for src/data: synthetic dataset factories (statistics match the
// requested targets), and the HetRec Last.fm / Flixster parsers on small
// fixture files that exercise the paper's preprocessing rules.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/export.h"
#include "data/flixster.h"
#include "data/hetrec_lastfm.h"
#include "data/synthetic.h"
#include "graph/components.h"
#include "graph/generators/preference_generator.h"

namespace privrec::data {
namespace {

// ---------------------------------------------------------- Synthetic

TEST(SyntheticTest, TinyDatasetIsAlignedAndNonTrivial) {
  Dataset d = MakeTinyDataset(200, 150, 1);
  EXPECT_TRUE(IsAligned(d));
  EXPECT_EQ(d.social.num_nodes(), 200);
  EXPECT_EQ(d.preferences.num_items(), 150);
  EXPECT_GT(d.social.num_edges(), 100);
  EXPECT_GT(d.preferences.num_edges(), 200);
}

TEST(SyntheticTest, TinyDatasetDeterministic) {
  Dataset a = MakeTinyDataset(100, 80, 9);
  Dataset b = MakeTinyDataset(100, 80, 9);
  EXPECT_EQ(a.social.Edges(), b.social.Edges());
  EXPECT_EQ(a.preferences.Edges(), b.preferences.Edges());
}

TEST(SyntheticTest, LastFmScaleMatchesTable1) {
  // Full published scale; verify the Table 1 statistics the generator
  // targets (loose tolerances — these are distributional).
  Dataset d = MakeSyntheticLastFm();
  DatasetSummary s = Summarize(d);
  EXPECT_EQ(s.num_users, 1892);
  EXPECT_EQ(s.num_items, 17632);
  EXPECT_NEAR(s.avg_user_degree, 13.4, 2.0);
  EXPECT_NEAR(s.avg_prefs_per_user, 48.7, 3.0);
  EXPECT_GT(s.sparsity, 0.99);
  // Degree tail: std should be comparable to the published 17.3.
  EXPECT_GT(s.user_degree_stddev, 8.0);
}

TEST(SyntheticTest, LastFmHasTinyComponents) {
  Dataset d = MakeSyntheticLastFm();
  graph::ComponentInfo info = graph::ConnectedComponents(d.social);
  // 19 tiny components requested; the main component may shed a couple of
  // extra fragments.
  EXPECT_GE(info.num_components, 20);
  // Main component holds the vast majority of users (97.4% in the paper).
  EXPECT_GT(static_cast<double>(info.sizes[0]) /
                static_cast<double>(d.social.num_nodes()),
            0.9);
}

TEST(SyntheticTest, FlixsterScaledStatistics) {
  SyntheticFlixsterOptions opt;
  opt.num_users = 3000;  // reduced for test speed; ratios preserved
  opt.num_items = 2000;
  Dataset d = MakeSyntheticFlixster(opt);
  DatasetSummary s = Summarize(d);
  EXPECT_EQ(s.num_users, 3000);
  EXPECT_NEAR(s.avg_user_degree, 18.5, 3.0);
  EXPECT_NEAR(s.avg_prefs_per_user, 54.8, 5.0);
}

TEST(SyntheticTest, SummaryMatchesManualComputation) {
  Dataset d = MakeTinyDataset(80, 60, 3);
  DatasetSummary s = Summarize(d);
  EXPECT_EQ(s.num_social_edges, d.social.num_edges());
  EXPECT_DOUBLE_EQ(s.avg_user_degree, d.social.AverageDegree());
  EXPECT_DOUBLE_EQ(
      s.avg_prefs_per_user,
      static_cast<double>(d.preferences.num_edges()) / 80.0);
}

// FNV-1a over the little-endian bytes of each value.
uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Digest of the user-major preference CSR: every (user, item, weight bits).
uint64_t PreferenceDigest(const graph::PreferenceGraph& p) {
  uint64_t h = FnvMix(kFnvBasis, static_cast<uint64_t>(p.num_users()));
  h = FnvMix(h, static_cast<uint64_t>(p.num_items()));
  for (graph::NodeId u = 0; u < p.num_users(); ++u) {
    auto items = p.ItemsOf(u);
    auto weights = p.WeightsOf(u);
    for (size_t k = 0; k < items.size(); ++k) {
      h = FnvMix(h, static_cast<uint64_t>(u));
      h = FnvMix(h, static_cast<uint64_t>(items[k]));
      h = FnvMix(h, std::bit_cast<uint64_t>(weights[k]));
    }
  }
  return h;
}

uint64_t SocialDigest(const graph::SocialGraph& g) {
  uint64_t h = FnvMix(kFnvBasis, static_cast<uint64_t>(g.num_nodes()));
  for (auto [u, v] : g.Edges()) {
    h = FnvMix(h, static_cast<uint64_t>(u));
    h = FnvMix(h, static_cast<uint64_t>(v));
  }
  return h;
}

// Pins the generators' exact output as constants, so it holds across
// rewrites and not just across two runs of one binary: any change to the
// RNG call order, the lazy permutations or the rating assignment fails here.
TEST(SyntheticTest, GoldenFingerprints) {
  SyntheticFlixsterOptions flixster;
  flixster.num_users = 3000;
  flixster.seed = 7;
  Dataset f = MakeSyntheticFlixster(flixster);
  EXPECT_EQ(PreferenceDigest(f.preferences), 0xff86dbb798d573e1ULL);
  EXPECT_EQ(SocialDigest(f.social), 0x530af0bff0c8b837ULL);

  Dataset tiny = MakeTinyDataset();
  EXPECT_EQ(PreferenceDigest(tiny.preferences), 0xf5162929cc67345eULL);
  EXPECT_EQ(SocialDigest(tiny.social), 0xb81a92d22290df4aULL);

  Dataset lastfm = MakeSyntheticLastFm();
  EXPECT_EQ(PreferenceDigest(lastfm.preferences), 0x9a01ccd565731f52ULL);
  EXPECT_EQ(SocialDigest(lastfm.social), 0xe1044563ea7d99acULL);

  // The weighted variant assigns ratings in the chosen set's iteration
  // order, so this case also pins that order.
  std::vector<int64_t> community_of(600);
  for (size_t u = 0; u < community_of.size(); ++u) {
    community_of[u] = static_cast<int64_t>(u % 8);
  }
  graph::PreferenceGeneratorOptions weighted;
  weighted.num_items = 2000;
  weighted.max_rating = 5;
  weighted.personal_taste = 0.2;
  weighted.community_catalog_size = 300;
  weighted.seed = 11;
  graph::PreferenceGraph w = graph::GeneratePreferences(community_of, weighted);
  ASSERT_TRUE(w.is_weighted());
  EXPECT_EQ(PreferenceDigest(w), 0x4aaca75fddf52fe3ULL);
}

// ------------------------------------------------------- Dataset export

class DatasetExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "privrec_export";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DatasetExportTest, RoundTripPreservesEverything) {
  Dataset original = MakeTinyDataset(90, 70, 31);
  ASSERT_TRUE(SaveDataset(original, dir_.string()).ok());
  auto loaded = LoadDataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->social.num_nodes(), original.social.num_nodes());
  EXPECT_EQ(loaded->social.Edges(), original.social.Edges());
  EXPECT_EQ(loaded->preferences.num_items(),
            original.preferences.num_items());
  EXPECT_EQ(loaded->preferences.Edges(), original.preferences.Edges());
}

TEST_F(DatasetExportTest, PreservesEdgelessUsersAndItems) {
  // User 2 has no edges anywhere; item 3 is never preferred.
  Dataset d;
  d.name = "sparse";
  d.social = graph::SocialGraph::FromEdges(3, {{0, 1}});
  d.preferences = graph::PreferenceGraph::FromEdges(3, 4, {{0, 0}, {1, 2}});
  ASSERT_TRUE(SaveDataset(d, dir_.string()).ok());
  auto loaded = LoadDataset(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->social.num_nodes(), 3);
  EXPECT_EQ(loaded->preferences.num_items(), 4);
  EXPECT_EQ(loaded->preferences.UserDegree(2), 0);
}

TEST_F(DatasetExportTest, RoundTripsWeights) {
  Dataset d;
  d.name = "rated";
  d.social = graph::SocialGraph::FromEdges(2, {{0, 1}});
  d.preferences = graph::PreferenceGraph::FromWeightedEdges(
      2, 2, {{0, 0, 3.5}, {1, 1, 2.0}});
  ASSERT_TRUE(SaveDataset(d, dir_.string()).ok());
  auto loaded = LoadDataset(dir_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->preferences.is_weighted());
  EXPECT_DOUBLE_EQ(loaded->preferences.Weight(0, 0), 3.5);
}

TEST_F(DatasetExportTest, MissingMetaFails) {
  std::filesystem::create_directories(dir_);
  auto loaded = LoadDataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(DatasetExportTest, EdgeOutsideMetaRangeFails) {
  Dataset d = MakeTinyDataset(30, 20, 32);
  ASSERT_TRUE(SaveDataset(d, dir_.string()).ok());
  // Corrupt: append a social edge referencing node 999.
  std::ofstream out(dir_ / "social.tsv", std::ios::app);
  out << "0\t999\n";
  out.close();
  auto loaded = LoadDataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

// --------------------------------------------------------------- Fixtures

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "privrec_parsers";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(ParserTest, HetRecLastFmAppliesWeightThreshold) {
  WriteFile("user_friends.dat",
            "userID\tfriendID\n"
            "10\t20\n"
            "20\t30\n");
  WriteFile("user_artists.dat",
            "userID\tartistID\tweight\n"
            "10\t100\t5\n"
            "10\t200\t1\n"   // dropped: weight < 2
            "20\t100\t2\n"
            "30\t300\t99\n");
  auto d = LoadHetRecLastFm(dir_.string());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->social.num_nodes(), 3);
  EXPECT_EQ(d->social.num_edges(), 2);
  // 3 preference edges survive; artist 200 never appears as an item.
  EXPECT_EQ(d->preferences.num_edges(), 3);
  EXPECT_EQ(d->preferences.num_items(), 2);
}

TEST_F(ParserTest, HetRecLastFmSkipsUsersWithoutSocialPresence) {
  WriteFile("user_friends.dat", "h\n1\t2\n");
  WriteFile("user_artists.dat",
            "h\n"
            "1\t100\t3\n"
            "99\t100\t3\n");  // user 99 has no friendships -> dropped
  auto d = LoadHetRecLastFm(dir_.string());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->preferences.num_edges(), 1);
}

TEST_F(ParserTest, HetRecLastFmMissingFileFails) {
  WriteFile("user_friends.dat", "h\n1\t2\n");
  auto d = LoadHetRecLastFm(dir_.string());
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kIoError);
}

TEST_F(ParserTest, FlixsterPipelineMainComponentAndThreshold) {
  // Users 1,2,3 form a triangle; users 4,5 a separate pair; user 6 has no
  // kept ratings and is excluded entirely.
  WriteFile("links.txt",
            "1\t2\n"
            "2\t3\n"
            "1\t3\n"
            "4\t5\n"
            "1\t6\n");
  WriteFile("ratings.txt",
            "1\t100\t4.5\n"
            "2\t100\t3.0\n"
            "2\t200\t1.0\n"   // dropped: rating < 2
            "3\t300\t2.0\n"
            "4\t100\t5.0\n"
            "5\t400\t4.0\n"
            "6\t100\t0.5\n");  // dropped -> user 6 has no ratings
  auto d = LoadFlixster(dir_.string());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  // Main component of the induced graph = {1, 2, 3}.
  EXPECT_EQ(d->social.num_nodes(), 3);
  EXPECT_EQ(d->social.num_edges(), 3);
  // Ratings kept: (1,100), (2,100), (3,300) — users 4,5 are outside the
  // main component.
  EXPECT_EQ(d->preferences.num_edges(), 3);
  EXPECT_EQ(d->preferences.num_items(), 2);
}

TEST_F(ParserTest, FlixsterHalfStarRatingsParsed) {
  WriteFile("links.txt", "1\t2\n");
  WriteFile("ratings.txt",
            "1\t10\t0.5\n"
            "1\t11\t2.5\n"
            "2\t10\t3.5\n");
  auto d = LoadFlixster(dir_.string());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->preferences.num_edges(), 2);  // the 0.5 is dropped
}

TEST_F(ParserTest, FlixsterMalformedRatingFails) {
  WriteFile("links.txt", "1\t2\n");
  WriteFile("ratings.txt", "1\t10\tfive\n");
  auto d = LoadFlixster(dir_.string());
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kParseError);
}

TEST_F(ParserTest, GarbageInputsFailGracefully) {
  // Parsers must reject arbitrary junk with ParseError, never crash.
  const char* kJunk[] = {
      "\x01\x02\x03 binary garbage\n",
      "1\n",                      // too few fields
      "999999999999999999999999999999 1 1\n",  // overflow
      "a b c d e f\n",
      "1\t2\t3\t4\t5\t-\n",
  };
  for (const char* junk : kJunk) {
    WriteFile("links.txt", junk);
    WriteFile("ratings.txt", "1\t10\t3.0\n");
    auto d = LoadFlixster(dir_.string());
    if (d.ok()) continue;  // some junk lines parse as valid pairs; fine
    EXPECT_EQ(d.status().code(), StatusCode::kParseError) << junk;
  }
}

TEST_F(ParserTest, HetRecHeaderOnlyFilesYieldEmptyDataset) {
  WriteFile("user_friends.dat", "userID\tfriendID\n");
  WriteFile("user_artists.dat", "userID\tartistID\tweight\n");
  auto d = LoadHetRecLastFm(dir_.string());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->social.num_nodes(), 0);
  EXPECT_EQ(d->preferences.num_edges(), 0);
}

TEST_F(ParserTest, FlixsterEmptyRatingsYieldsEmptyMainComponent) {
  WriteFile("links.txt", "1\t2\n");
  WriteFile("ratings.txt", "");
  auto d = LoadFlixster(dir_.string());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->social.num_nodes(), 0);
  EXPECT_EQ(d->preferences.num_edges(), 0);
}

}  // namespace
}  // namespace privrec::data
