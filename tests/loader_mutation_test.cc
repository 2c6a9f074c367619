// Every text loader against its valid fixtures and against seeded
// mutations of them.
//
// The fixtures come from the repo's own writers (SaveDataset,
// SaveSocialGraph / SavePreferenceGraph, SaveWorkload, SavePartition) and
// from small generated HetRec and Flixster dumps. GoldenFingerprints pins
// what each loader returns for them as constants, so a rewrite of a loader
// that changes a valid load fails here. The mutation sweep then damages one
// file at a time (byte flips, deletions and insertions, cuts, dropped or
// duplicated lines, out-of-range and non-finite numbers, BOMs and CRs):
// each mutant must either load or fail with kParseError, and nothing may
// throw or trip a PRIVREC_CHECK. Where a format counts its records (the
// dataset export, the workload and the partition), a dropped or
// duplicated record line must be rejected.

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "community/louvain.h"
#include "community/partition_io.h"
#include "data/export.h"
#include "data/flixster.h"
#include "data/hetrec_lastfm.h"
#include "data/synthetic.h"
#include "graph/graph_io.h"
#include "graph/metrics.h"
#include "similarity/adamic_adar.h"
#include "similarity/workload.h"
#include "similarity/workload_io.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

// FNV-1a over the little-endian bytes of each value.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kBasis = 0xcbf29ce484222325ULL;

uint64_t MixString(uint64_t h, const std::string& s) {
  h = Mix(h, s.size());
  for (char c : s) h = Mix(h, static_cast<unsigned char>(c));
  return h;
}

uint64_t MixIds(uint64_t h, const std::vector<int64_t>& ids) {
  h = Mix(h, ids.size());
  for (int64_t id : ids) h = Mix(h, static_cast<uint64_t>(id));
  return h;
}

uint64_t DatasetDigest(const data::Dataset& d) {
  return MixString(graph::DatasetFingerprint(d.social, d.preferences),
                   d.name);
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// One text format: the files of a fixture directory and the loader that
// reads it back, reduced to a fingerprint of everything it returns.
struct Format {
  std::string name;
  std::vector<std::string> files;
  // Files whose record lines a header counts, so that dropping or
  // duplicating one must fail the load.
  std::set<std::string> counted;
  std::function<Result<uint64_t>(const fs::path& dir)> load;
};

// HetRec Last.fm layout: column-name headers, a self loop (dropped),
// listen counts below 2 (dropped) and listeners without friendships.
void WriteLastFmFixture(const fs::path& dir) {
  Rng rng(41);
  std::string friends = "userID\tfriendID\n";
  for (int k = 0; k < 60; ++k) {
    const int64_t a = 2 + 3 * rng.UniformInt(int64_t{0}, int64_t{24});
    const int64_t b =
        k % 17 == 0 ? a : 2 + 3 * rng.UniformInt(int64_t{0}, int64_t{24});
    friends += std::to_string(a) + "\t" + std::to_string(b) + "\n";
  }
  std::string artists = "userID\tartistID\tweight\n";
  for (int k = 0; k < 120; ++k) {
    const int64_t user = 2 + 3 * rng.UniformInt(int64_t{0}, int64_t{27});
    const int64_t artist = 100 + rng.UniformInt(int64_t{0}, int64_t{39});
    const int64_t weight = rng.UniformInt(int64_t{1}, int64_t{400});
    artists += std::to_string(user) + "\t" + std::to_string(artist) + "\t" +
               std::to_string(k % 7 == 0 ? 1 : weight) + "\n";
  }
  WriteBytes(dir / "user_friends.dat", friends);
  WriteBytes(dir / "user_artists.dat", artists);
}

// Flixster layout: no headers, half-star ratings, ratings below 2
// (dropped), a second component and a self loop in the links.
void WriteFlixsterFixture(const fs::path& dir) {
  Rng rng(43);
  std::string links;
  for (int k = 0; k < 70; ++k) {
    const int64_t a = 10 + rng.UniformInt(int64_t{0}, int64_t{29});
    const int64_t b =
        k % 23 == 0 ? a : 10 + rng.UniformInt(int64_t{0}, int64_t{29});
    links += std::to_string(a) + "\t" + std::to_string(b) + "\n";
  }
  links += "900\t901\n901\t902\n";  // a separate component
  std::string ratings;
  for (int k = 0; k < 150; ++k) {
    const int64_t user = 10 + rng.UniformInt(int64_t{0}, int64_t{31});
    const int64_t movie = 500 + rng.UniformInt(int64_t{0}, int64_t{44});
    const double rating =
        0.5 * static_cast<double>(rng.UniformInt(int64_t{1}, int64_t{10}));
    char line[64];
    std::snprintf(line, sizeof(line), "%lld\t%lld\t%g\n",
                  static_cast<long long>(user), static_cast<long long>(movie),
                  rating);
    ratings += line;
  }
  ratings += "900\t500\t4.5\n901\t501\t3\n";
  WriteBytes(dir / "links.txt", links);
  WriteBytes(dir / "ratings.txt", ratings);
}

// The weighted twin of MakeTinyDataset: the same edges with ratings in
// {0.5, 1.0, ..., 5.0}.
data::Dataset WeightedTinyDataset() {
  data::Dataset tiny = data::MakeTinyDataset(40, 30, 7);
  std::vector<graph::PreferenceEdge> rated;
  for (auto [user, item] : tiny.preferences.Edges()) {
    rated.push_back(
        {user, item, 0.5 * static_cast<double>(1 + (user * 7 + item) % 10)});
  }
  tiny.name = "rated";
  tiny.preferences = graph::PreferenceGraph::FromWeightedEdges(
      tiny.social.num_nodes(), tiny.preferences.num_items(), rated);
  return tiny;
}

// Writes every format's fixture under `root` (one directory per format)
// and returns the formats.
std::vector<Format> WriteFixtures(const fs::path& root) {
  const data::Dataset tiny = data::MakeTinyDataset(40, 30, 7);
  const data::Dataset rated = WeightedTinyDataset();
  const graph::NodeId users = tiny.social.num_nodes();
  std::vector<Format> formats;

  auto load_dataset = [](const fs::path& dir) -> Result<uint64_t> {
    auto loaded = data::LoadDataset(dir.string());
    if (!loaded.ok()) return loaded.status();
    return DatasetDigest(*loaded);
  };
  for (const data::Dataset* d : {&tiny, &rated}) {
    const std::string name = d == &tiny ? "dataset" : "rated_dataset";
    fs::create_directories(root / name);
    EXPECT_TRUE(data::SaveDataset(*d, (root / name).string()).ok());
    formats.push_back({name,
                       {"meta.txt", "social.tsv", "preferences.tsv"},
                       {"social.tsv", "preferences.tsv"},
                       load_dataset});
  }

  fs::create_directories(root / "graph_io");
  EXPECT_TRUE(
      graph::SaveSocialGraph(tiny.social, (root / "graph_io/social.tsv")
                                              .string())
          .ok());
  EXPECT_TRUE(graph::SavePreferenceGraph(
                  rated.preferences, (root / "graph_io/prefs.tsv").string())
                  .ok());
  formats.push_back(
      {"graph_io",
       {"social.tsv", "prefs.tsv"},
       {},
       [](const fs::path& dir) -> Result<uint64_t> {
         auto social = graph::LoadSocialGraph((dir / "social.tsv").string());
         if (!social.ok()) return social.status();
         auto prefs = graph::LoadPreferenceGraph((dir / "prefs.tsv").string());
         if (!prefs.ok()) return prefs.status();
         uint64_t h = graph::DatasetFingerprint(social->graph, prefs->graph);
         h = MixIds(h, social->original_id);
         h = MixIds(h, prefs->original_user_id);
         return MixIds(h, prefs->original_item_id);
       }});

  fs::create_directories(root / "workload");
  EXPECT_TRUE(similarity::SaveWorkload(
                  similarity::SimilarityWorkload::Compute(
                      tiny.social, similarity::AdamicAdar()),
                  (root / "workload/workload.tsv").string())
                  .ok());
  formats.push_back(
      {"workload",
       {"workload.tsv"},
       {"workload.tsv"},
       [users](const fs::path& dir) -> Result<uint64_t> {
         auto w = similarity::LoadWorkload((dir / "workload.tsv").string(),
                                           users);
         if (!w.ok()) return w.status();
         uint64_t h = MixString(Mix(kBasis, static_cast<uint64_t>(
                                                w->num_users())),
                                w->measure_name());
         for (graph::NodeId u = 0; u < w->num_users(); ++u) {
           h = Mix(h, w->Row(u).size());
           for (const similarity::SimilarityEntry& e : w->Row(u)) {
             h = Mix(h, static_cast<uint64_t>(e.user));
             h = Mix(h, std::bit_cast<uint64_t>(e.score));
           }
         }
         h = Mix(h, std::bit_cast<uint64_t>(w->MaxColumnSum()));
         return Mix(h, std::bit_cast<uint64_t>(w->MaxEntry()));
       }});

  fs::create_directories(root / "partition");
  EXPECT_TRUE(community::SavePartition(
                  community::RunLouvain(tiny.social, {.seed = 3}).partition,
                  (root / "partition/partition.tsv").string())
                  .ok());
  formats.push_back(
      {"partition",
       {"partition.tsv"},
       {"partition.tsv"},
       [users](const fs::path& dir) -> Result<uint64_t> {
         auto p = community::LoadPartition((dir / "partition.tsv").string(),
                                           users);
         if (!p.ok()) return p.status();
         return MixIds(kBasis, p->cluster_of());
       }});

  fs::create_directories(root / "lastfm");
  WriteLastFmFixture(root / "lastfm");
  formats.push_back({"lastfm",
                     {"user_friends.dat", "user_artists.dat"},
                     {},
                     [](const fs::path& dir) -> Result<uint64_t> {
                       auto d = data::LoadHetRecLastFm(dir.string());
                       if (!d.ok()) return d.status();
                       return DatasetDigest(*d);
                     }});

  fs::create_directories(root / "flixster");
  WriteFlixsterFixture(root / "flixster");
  formats.push_back({"flixster",
                     {"links.txt", "ratings.txt"},
                     {},
                     [](const fs::path& dir) -> Result<uint64_t> {
                       auto binary = data::LoadFlixster(dir.string());
                       if (!binary.ok()) return binary.status();
                       data::FlixsterOptions raw;
                       raw.binarize = false;
                       auto rated = data::LoadFlixster(dir.string(), raw);
                       if (!rated.ok()) return rated.status();
                       return Mix(DatasetDigest(*binary),
                                  DatasetDigest(*rated));
                     }});
  return formats;
}

class LoaderMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("privrec_mutation_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    formats_ = WriteFixtures(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  std::vector<Format> formats_;
};

// Computed with the loaders as they stood before they shared one record
// reader; a loader that loads a valid file differently fails here.
const std::map<std::string, uint64_t>& GoldenDigests() {
  static const std::map<std::string, uint64_t> golden = {
      {"dataset", 0x34a672e648802756ULL},
      {"rated_dataset", 0x3333ae57fd441b86ULL},
      {"graph_io", 0x2aa2520f474d119dULL},
      {"workload", 0x5d3f7cc00dcda679ULL},
      {"partition", 0xba9fce5090ec8549ULL},
      {"lastfm", 0x1fa8321fab3c14d6ULL},
      {"flixster", 0x2c90593311311a77ULL},
  };
  return golden;
}

TEST_F(LoaderMutationTest, GoldenFingerprints) {
  for (const Format& format : formats_) {
    Result<uint64_t> digest = format.load(root_ / format.name);
    ASSERT_TRUE(digest.ok()) << format.name << ": "
                             << digest.status().ToString();
    EXPECT_EQ(*digest, GoldenDigests().at(format.name)) << format.name;
  }
}

enum class Mutation {
  kFlipByte,
  kDeleteByte,
  kInsertByte,
  kCut,
  kDropLine,
  kDuplicateLine,
  kReplaceNumber,
  kInsertBom,
  kInsertCr,
};
constexpr Mutation kMutations[] = {
    Mutation::kFlipByte,       Mutation::kDeleteByte, Mutation::kInsertByte,
    Mutation::kCut,            Mutation::kDropLine,   Mutation::kDuplicateLine,
    Mutation::kReplaceNumber,  Mutation::kInsertBom,  Mutation::kInsertCr,
};

struct Mutant {
  std::string bytes;
  std::string what;
  // A record line was dropped or duplicated.
  bool record_line = false;
  // A BOM at the head of the file or a CR before a newline, which every
  // loader reads through: the file must load as the original did.
  bool harmless = false;
};

// [begin, end) of each line, its newline included.
std::vector<std::pair<size_t, size_t>> LineSpans(const std::string& bytes) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t begin = 0; begin < bytes.size();) {
    size_t end = bytes.find('\n', begin);
    end = end == std::string::npos ? bytes.size() : end + 1;
    spans.emplace_back(begin, end);
    begin = end;
  }
  return spans;
}

bool IsRecordLine(std::string_view line) {
  const size_t first = line.find_first_not_of(" \t\r\n");
  return first != std::string_view::npos && line[first] != '#';
}

size_t Below(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(n)));
}

Mutant Mutate(const std::string& original, Mutation kind, Rng& rng) {
  Mutant m{original, ""};
  std::string& b = m.bytes;
  const size_t pos = Below(rng, b.size());
  switch (kind) {
    case Mutation::kFlipByte:
      b[pos] = static_cast<char>(b[pos] ^ (1 + Below(rng, 255)));
      m.what = "flip byte " + std::to_string(pos);
      break;
    case Mutation::kDeleteByte:
      b.erase(pos, 1);
      m.what = "delete byte " + std::to_string(pos);
      break;
    case Mutation::kInsertByte:
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
               static_cast<char>(Below(rng, 256)));
      m.what = "insert a byte at " + std::to_string(pos);
      break;
    case Mutation::kCut:
      b.resize(pos);
      m.what = "cut at byte " + std::to_string(pos);
      break;
    case Mutation::kDropLine:
    case Mutation::kDuplicateLine: {
      const auto spans = LineSpans(b);
      const auto [begin, end] = spans[Below(rng, spans.size())];
      const std::string line = b.substr(begin, end - begin);
      m.record_line = IsRecordLine(line);
      if (kind == Mutation::kDropLine) {
        b.erase(begin, end - begin);
        m.what = "drop line '" + line + "'";
      } else {
        b.insert(end, line.back() == '\n' ? line : line + "\n");
        m.what = "duplicate line '" + line + "'";
      }
      break;
    }
    case Mutation::kReplaceNumber: {
      // Numbers: maximal runs of digits and dots.
      std::vector<std::pair<size_t, size_t>> numbers;
      for (size_t i = 0; i < b.size();) {
        if (!std::isdigit(static_cast<unsigned char>(b[i]))) {
          ++i;
          continue;
        }
        size_t j = i;
        while (j < b.size() &&
               (std::isdigit(static_cast<unsigned char>(b[j])) || b[j] == '.')) {
          ++j;
        }
        numbers.emplace_back(i, j - i);
        i = j;
      }
      if (numbers.empty()) return m;
      static const char* const kValues[] = {"99999999999999", "-1", "nan",
                                            "inf"};
      const auto [at, length] = numbers[Below(rng, numbers.size())];
      const char* value = kValues[Below(rng, 4)];
      m.what = "replace '" + b.substr(at, length) + "' at byte " +
               std::to_string(at) + " with " + value;
      b.replace(at, length, value);
      break;
    }
    case Mutation::kInsertBom:
      if (rng.UniformInt(uint64_t{2}) == 0) {
        b.insert(0, "\xEF\xBB\xBF");
        m.harmless = true;
        m.what = "BOM at the head";
      } else {
        b.insert(pos, "\xEF\xBB\xBF");
        m.what = "BOM at byte " + std::to_string(pos);
      }
      break;
    case Mutation::kInsertCr: {
      const size_t newline = b.find('\n', pos);
      if (rng.UniformInt(uint64_t{2}) == 0 && newline != std::string::npos) {
        b.insert(newline, "\r");
        m.harmless = true;
        m.what = "CR before the newline at byte " + std::to_string(newline);
      } else {
        b.insert(pos, "\r");
        m.what = "CR at byte " + std::to_string(pos);
      }
      break;
    }
  }
  return m;
}

// Mutants of each kind, per file of each format. Keeps the sweep (about
// 1,500 loads of files of a few hundred lines) well under a second.
constexpr int kMutantsPerKind = 12;

TEST_F(LoaderMutationTest, EveryMutantLoadsOrFailsWithParseError) {
  int64_t loaded = 0;
  int64_t rejected = 0;
  for (const Format& format : formats_) {
    const fs::path dir = root_ / format.name;
    const uint64_t golden = GoldenDigests().at(format.name);
    for (const std::string& file : format.files) {
      const std::string original = ReadBytes(dir / file);
      ASSERT_FALSE(original.empty()) << format.name << "/" << file;
      Rng rng(MixString(MixString(kBasis, format.name), file));
      for (Mutation kind : kMutations) {
        for (int k = 0; k < kMutantsPerKind; ++k) {
          const Mutant mutant = Mutate(original, kind, rng);
          WriteBytes(dir / file, mutant.bytes);
          const std::string where = format.name + "/" + file + ": " + mutant.what;
          Result<uint64_t> digest = Status::Internal("not loaded");
          try {
            digest = format.load(dir);
          } catch (const std::exception& e) {
            ADD_FAILURE() << where << ": threw " << e.what();
            continue;
          }
          if (digest.ok()) {
            ++loaded;
          } else {
            ++rejected;
            EXPECT_EQ(digest.status().code(), StatusCode::kParseError)
                << where << ": " << digest.status().ToString();
          }
          if (mutant.harmless) {
            EXPECT_TRUE(digest.ok() && *digest == golden) << where;
          }
          if (mutant.record_line && format.counted.count(file) > 0) {
            EXPECT_FALSE(digest.ok()) << where << " loaded";
          }
        }
      }
      WriteBytes(dir / file, original);
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace privrec
