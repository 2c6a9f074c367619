#include "common/record_reader.h"

#include <cmath>
#include <string>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace privrec {

Result<RecordReader> RecordReader::Open(const std::string& path,
                                        std::string_view fault_prefix) {
  const std::string prefix(fault_prefix);
  if (fault::Hit((prefix + ".open").c_str()) == fault::FaultKind::kIoError) {
    return Status::IoError("cannot open " + path + " (injected fault)");
  }
  RecordReader reader;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) return Status::IoError("cannot open " + path);
  reader.path_ = path;
  reader.read_point_ = prefix + ".read";
  if (reader.ReadLine()) {
    if (StartsWith(reader.text(), "#")) {
      reader.header_ = std::string(reader.text());
    } else {
      reader.pending_ = true;
    }
  } else if (!reader.status_.ok()) {
    return reader.status_;
  }
  return reader;
}

bool RecordReader::ReadLine() {
  if (!std::getline(in_, buffer_)) {
    if (in_.bad()) status_ = Status::IoError("read failed for " + path_);
    return false;
  }
  ++line_no_;
  switch (fault::Hit(read_point_.c_str())) {
    case fault::FaultKind::kShortRead:
      status_ = Status::ParseError(path_ + ":" + std::to_string(line_no_) +
                                   ": file truncated (short read)");
      return false;
    case fault::FaultKind::kIoError:
      status_ = Status::IoError("read failed for " + path_ +
                                " (injected fault)");
      return false;
    default:
      break;
  }
  unterminated_ = in_.eof();
  std::string_view text = buffer_;
  constexpr std::string_view kBom = "\xEF\xBB\xBF";
  if (line_no_ == 1 && StartsWith(text, kBom)) text.remove_prefix(kBom.size());
  text = Trim(text);
  text_begin_ = static_cast<size_t>(text.data() - buffer_.data());
  text_size_ = text.size();
  return true;
}

bool RecordReader::Next(size_t min_fields) {
  if (!status_.ok()) return false;
  while (pending_ || ReadLine()) {
    pending_ = false;
    const std::string_view line = text();
    if (line.empty() || line[0] == '#') continue;
    SplitWhitespace(line, &fields_);
    ++records_;
    if (fields_.size() < min_fields) {
      status_ = Error("expected " + std::to_string(min_fields) +
                      " fields, found " + std::to_string(fields_.size()));
      return false;
    }
    return true;
  }
  return false;
}

bool RecordReader::HeaderCount(std::string_view unit, int64_t* count) const {
  const std::vector<std::string_view> words = SplitWhitespace(header_);
  for (size_t k = 1; k < words.size(); ++k) {
    std::string_view word = words[k];
    if (word.ends_with(',')) word.remove_suffix(1);
    if (word == unit) return ParseId(words[k - 1], count);
  }
  return false;
}

Status RecordReader::CheckHeaderCount(std::string_view unit,
                                      int64_t read) const {
  int64_t promised = 0;
  if (!HeaderCount(unit, &promised) || read == promised) return Status::Ok();
  return Status::ParseError(path_ + ": header promises " +
                            std::to_string(promised) + " " +
                            std::string(unit) + ", read " +
                            std::to_string(read));
}

Status RecordReader::Error(std::string_view what) const {
  std::string message =
      path_ + ":" + std::to_string(line_no_) + ": " + std::string(what);
  if (unterminated_) message += " (file appears truncated)";
  return Status::ParseError(message);
}

bool ParseId(std::string_view field, int64_t* id) {
  return ParseInt64(field, id) && *id >= 0;
}

bool ParseFinite(std::string_view field, double* value) {
  return ParseDouble(field, value) && std::isfinite(*value);
}

}  // namespace privrec
