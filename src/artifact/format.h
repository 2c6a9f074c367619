// Little-endian fixed-width primitives for the metadata blobs of the
// sharded artifact (manifest meta, shard table, shard header; see
// artifact/shard_layout.h). The writer is byte-deterministic; the reader
// bounds-checks every read, so a truncated or bit-flipped blob turns into
// a Status naming the damaged section instead of a crash or a silent
// mis-load.

#ifndef PRIVREC_ARTIFACT_FORMAT_H_
#define PRIVREC_ARTIFACT_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace privrec::serving {

// Appends little-endian fixed-width values to a byte buffer. Doubles are
// stored as their IEEE-754 bit pattern, so encode(decode(x)) is exact and
// the blob is byte-deterministic.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { PutLe(v); }
  void U64(uint64_t v) { PutLe(v); }
  void I64(int64_t v) { PutLe(static_cast<uint64_t>(v)); }
  void F64(double v);
  // u32 length prefix + raw bytes.
  void Str(const std::string& s);

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

// Bounds-checked little-endian reads over a byte span. Every getter
// returns false once the input is exhausted; Truncated() then produces a
// parse error naming the section being decoded. Element counts read from
// the payload must be validated with FitsCount before resizing — a
// bit-flipped count must fail cleanly, not allocate terabytes.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string context)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()),
        context_(std::move(context)) {}

  bool U8(uint8_t* out);
  bool U32(uint32_t* out);
  bool U64(uint64_t* out);
  bool I64(int64_t* out);
  bool F64(double* out);
  bool Str(std::string* out);

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

  // True iff `count` elements of `elem_size` bytes could still fit in the
  // remaining input (the decode-side sanity gate for counts).
  bool FitsCount(uint64_t count, size_t elem_size) const {
    return elem_size == 0 || count <= remaining() / elem_size;
  }

  // "artifact section '<context>' truncated or corrupt".
  Status Truncated() const;

 private:
  template <typename T>
  bool GetLe(T* out) {
    if (remaining() < sizeof(T)) return false;
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(p_[i])) << (8 * i);
    }
    p_ += sizeof(T);
    *out = v;
    return true;
  }

  const char* p_;
  const char* end_;
  std::string context_;
};

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_FORMAT_H_
