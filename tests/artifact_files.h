// Helpers for tests that damage saved .pvram artifacts on purpose. Shard
// file names come from the manifest's shard table, the only record of
// them, and bit flips land inside a CRC-covered payload located through
// the section table: padding and reserved fields are outside every check,
// so a flip at a blind offset can leave the file valid.

#ifndef PRIVREC_TESTS_ARTIFACT_FILES_H_
#define PRIVREC_TESTS_ARTIFACT_FILES_H_

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/shard_layout.h"

namespace privrec::test_artifacts {

inline std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The path of every shard file `manifest` names, in shard order. Reads
// only the manifest, so it works on a set whose shards are damaged or
// missing.
inline std::vector<std::string> ShardPaths(const std::string& manifest) {
  const std::string bytes = FileBytes(manifest);
  auto view = serving::ParseAlignedContainer(
      bytes.data(), bytes.size(), serving::kManifestMagic,
      serving::kShardFormatVersion, manifest);
  if (!view.ok()) {
    ADD_FAILURE() << view.status().ToString();
    return {};
  }
  std::vector<serving::ShardTableEntry> table;
  for (const serving::AlignedSectionView& s : view->sections) {
    if (s.id ==
        static_cast<uint32_t>(serving::ManifestSectionId::kShardTable)) {
      Status decoded = serving::DecodeShardTable(
          bytes.substr(s.offset, s.size), &table);
      EXPECT_TRUE(decoded.ok()) << decoded.ToString();
    }
  }
  std::vector<std::string> paths;
  const std::filesystem::path dir =
      std::filesystem::path(manifest).parent_path();
  for (const serving::ShardTableEntry& e : table) {
    paths.push_back((dir / e.file).string());
  }
  EXPECT_FALSE(paths.empty()) << manifest << " names no shard files";
  return paths;
}

// Flips one bit in the middle of section `section_id`'s payload of the
// aligned container at `path` (a manifest or a shard, per `magic`).
inline void FlipPayloadBit(const std::string& path, uint32_t magic,
                           uint32_t section_id) {
  std::string bytes = FileBytes(path);
  auto view = serving::ParseAlignedContainer(
      bytes.data(), bytes.size(), magic, serving::kShardFormatVersion, path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (const serving::AlignedSectionView& s : view->sections) {
    if (s.id != section_id) continue;
    ASSERT_GT(s.size, 0u);
    bytes[s.offset + s.size / 2] ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
    return;
  }
  FAIL() << "section " << section_id << " not found in " << path;
}

// Copies `manifest` to `copy` in the same directory, so the copy names the
// same shard files, and flips a bit in the copy's cluster_of payload: a
// manifest that fails its CRC check at open.
inline void CorruptManifestCopy(const std::string& manifest,
                                const std::string& copy) {
  std::filesystem::copy_file(
      manifest, copy, std::filesystem::copy_options::overwrite_existing);
  FlipPayloadBit(copy, serving::kManifestMagic,
                 static_cast<uint32_t>(serving::ManifestSectionId::kClusterOf));
}

}  // namespace privrec::test_artifacts

#endif  // PRIVREC_TESTS_ARTIFACT_FILES_H_
