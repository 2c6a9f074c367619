#include "similarity/workload_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/record_reader.h"
#include "common/string_util.h"

namespace privrec::similarity {

Status SaveWorkload(const SimilarityWorkload& workload,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  char header[256];
  // `entries=` lets the loader distinguish a file truncated at a line
  // boundary (silently shorter, otherwise undetectable) from a complete one.
  std::snprintf(header, sizeof(header),
                "# privrec workload measure=%s users=%" PRId64
                " entries=%" PRId64
                " max_column_sum=%.17g max_entry=%.17g\n",
                workload.measure_name().c_str(), workload.num_users(),
                workload.TotalEntries(), workload.MaxColumnSum(),
                workload.MaxEntry());
  out << header;
  char line[96];
  for (graph::NodeId u = 0; u < workload.num_users(); ++u) {
    for (const SimilarityEntry& e : workload.Row(u)) {
      std::snprintf(line, sizeof(line),
                    "%" PRId64 "\t%" PRId64 "\t%.17g\n", u, e.user,
                    e.score);
      out << line;
    }
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

Result<SimilarityWorkload> LoadWorkload(const std::string& path,
                                        graph::NodeId num_users) {
  auto reader = RecordReader::Open(path, "workload_io");
  if (!reader.ok()) return reader.status();
  if (!StartsWith(reader->header(), "# privrec workload")) {
    return Status::ParseError(path + ": missing workload header");
  }
  std::string measure_name;
  int64_t header_users = -1;
  int64_t num_entries = -1;  // absent in files written before the field
  double max_column_sum = -1.0;
  double max_entry = -1.0;
  for (std::string_view field : SplitWhitespace(reader->header())) {
    size_t eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    std::string_view key = field.substr(0, eq);
    std::string_view value = field.substr(eq + 1);
    if (key == "measure") {
      measure_name = std::string(value);
    } else if (key == "users") {
      if (!ParseId(value, &header_users)) {
        return Status::ParseError(path + ": bad users field");
      }
    } else if (key == "entries") {
      if (!ParseId(value, &num_entries)) {
        return Status::ParseError(path + ": bad entries field");
      }
    } else if (key == "max_column_sum") {
      if (!ParseFinite(value, &max_column_sum)) {
        return Status::ParseError(path + ": bad max_column_sum");
      }
    } else if (key == "max_entry") {
      if (!ParseFinite(value, &max_entry)) {
        return Status::ParseError(path + ": bad max_entry");
      }
    }
  }
  if (header_users < 0 || max_column_sum < 0.0 || max_entry < 0.0 ||
      measure_name.empty()) {
    return Status::ParseError(path + ": incomplete workload header");
  }
  // Checked before the row offsets are sized from it.
  if (header_users != num_users) {
    return Status::ParseError(path + ": workload has " +
                              std::to_string(header_users) +
                              " users, expected " +
                              std::to_string(num_users));
  }

  std::vector<size_t> offsets = {0};
  offsets.reserve(static_cast<size_t>(num_users) + 1);
  std::vector<SimilarityEntry> entries;
  graph::NodeId current = 0;
  while (reader->Next(3)) {
    int64_t u = 0;
    int64_t v = 0;
    double score = 0.0;
    if (!ParseId(reader->field(0), &u) || !ParseId(reader->field(1), &v) ||
        !ParseFinite(reader->field(2), &score)) {
      return reader->Error("bad entry");
    }
    // The engine serves only scores > 0; refuse one here, at its record,
    // before a build spends noise on it.
    if (!(score > 0.0)) return reader->Error("score is not > 0");
    if (u < current) return reader->Error("rows out of order");
    if (u >= num_users || v >= num_users) {
      return reader->Error("id outside header range");
    }
    while (current < u) {
      offsets.push_back(entries.size());
      ++current;
    }
    entries.push_back({v, score});
  }
  if (!reader->status().ok()) return reader->status();
  while (current < num_users) {
    offsets.push_back(entries.size());
    ++current;
  }
  if (num_entries >= 0 &&
      num_entries != static_cast<int64_t>(entries.size())) {
    return Status::ParseError(
        path + ": truncated workload (header promises " +
        std::to_string(num_entries) + " entries, got " +
        std::to_string(entries.size()) + ")");
  }
  return SimilarityWorkload::FromParts(num_users, std::move(measure_name),
                                       std::move(offsets),
                                       std::move(entries), max_column_sum,
                                       max_entry);
}

}  // namespace privrec::similarity
