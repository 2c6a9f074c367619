// RecordReader: the one line reader under every text loader.
//
// A text input is a sequence of records, one per line, split on
// whitespace. The reader owns what all of them share and leaves each
// loader only the rules of its own format:
//
//   - it opens the file under the caller's fault-point prefix
//     (`<prefix>.open` kIoError; `<prefix>.read`, hit once per line,
//     kShortRead or kIoError);
//   - it strips a UTF-8 byte-order mark from the first line and
//     surrounding whitespace (CR included) from every line, and skips
//     blank lines and '#' comments;
//   - it hands a leading '#' comment to the loader as the header, which is
//     where the repo's writers put their counts;
//   - it numbers physical lines and formats errors as "path:line: what";
//   - it reports truncation: a short read, and a defective record on a
//     final line that has no newline, are both kParseError that say so.
//
// A loader reads strictly: the first defect ends the load.
//
//   auto reader = RecordReader::Open(path, "graph_io");
//   if (!reader.ok()) return reader.status();
//   while (reader->Next(2)) {
//     int64_t a, b;
//     if (!ParseId(reader->field(0), &a) || !ParseId(reader->field(1), &b)) {
//       return reader->Error("expected two non-negative integer ids");
//     }
//   }
//   if (!reader->status().ok()) return reader->status();

#ifndef PRIVREC_COMMON_RECORD_READER_H_
#define PRIVREC_COMMON_RECORD_READER_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace privrec {

class RecordReader {
 public:
  // Opens `path` and reads its first line (the header when it is a
  // comment). kIoError when the file cannot be opened or read; the
  // truncation error when that first read is short.
  static Result<RecordReader> Open(const std::string& path,
                                   std::string_view fault_prefix);

  // The file's first line, trimmed, when it is a '#' comment; else empty.
  const std::string& header() const { return header_; }

  // The integer written before `unit` in the header ("90 nodes,",
  // "145 edges"). False when the header has none or it is negative.
  bool HeaderCount(std::string_view unit, int64_t* count) const;

  // When the header counts `unit`, kParseError naming the file unless
  // `read` records match that count: a file cut at a line boundary, or
  // with a line dropped or repeated, disagrees. Ok when it has no count.
  Status CheckHeaderCount(std::string_view unit, int64_t read) const;

  // Advances to the next record. A record with fewer than `min_fields`
  // fields is a defect. Returns false at the end of the input and at the
  // first defect or read failure; status() then tells which.
  bool Next(size_t min_fields = 1);

  size_t num_fields() const { return fields_.size(); }
  std::string_view field(size_t k) const { return fields_[k]; }

  // Records returned by Next() so far.
  int64_t records() const { return records_; }

  const std::string& path() const { return path_; }

  // kParseError "path:line: what" for the current record, noting that the
  // file looks truncated when the record is a final line with no newline.
  Status Error(std::string_view what) const;

  // Ok after a clean end of input; else the defect or read failure that
  // stopped Next().
  const Status& status() const { return status_; }

 private:
  RecordReader() = default;

  // Reads one physical line into buffer_ and locates its trimmed text
  // (BOM stripped on line 1) at [text_begin_, text_begin_ + text_size_).
  // False at the end of input or when a read fails (status_ set).
  bool ReadLine();
  std::string_view text() const {
    return {buffer_.data() + text_begin_, text_size_};
  }

  std::string path_;
  std::string read_point_;
  std::ifstream in_;
  std::string buffer_;
  // Offsets rather than a view: a view into a short buffer_ would not
  // survive the move out of Open().
  size_t text_begin_ = 0;
  size_t text_size_ = 0;
  std::string header_;
  std::vector<std::string_view> fields_;
  int64_t line_no_ = 0;
  int64_t records_ = 0;
  bool pending_ = false;  // buffer_ holds a record read by Open()
  bool unterminated_ = false;
  Status status_;
};

// A non-negative integer id.
bool ParseId(std::string_view field, int64_t* id);

// A finite floating-point value (no nan, no inf).
bool ParseFinite(std::string_view field, double* value);

}  // namespace privrec

#endif  // PRIVREC_COMMON_RECORD_READER_H_
