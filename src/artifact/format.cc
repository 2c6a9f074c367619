#include "artifact/format.h"

#include <bit>
#include <string>

namespace privrec::serving {

void ByteWriter::F64(double v) { PutLe(std::bit_cast<uint64_t>(v)); }

void ByteWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

bool ByteReader::U8(uint8_t* out) { return GetLe(out); }
bool ByteReader::U32(uint32_t* out) { return GetLe(out); }
bool ByteReader::U64(uint64_t* out) { return GetLe(out); }

bool ByteReader::I64(int64_t* out) {
  uint64_t v;
  if (!GetLe(&v)) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ByteReader::F64(double* out) {
  uint64_t v;
  if (!GetLe(&v)) return false;
  *out = std::bit_cast<double>(v);
  return true;
}

bool ByteReader::Str(std::string* out) {
  uint32_t size;
  if (!U32(&size)) return false;
  if (remaining() < size) return false;
  out->assign(p_, size);
  p_ += size;
  return true;
}

Status ByteReader::Truncated() const {
  return Status::ParseError("artifact section '" + context_ +
                            "' truncated or corrupt");
}

}  // namespace privrec::serving
