// Big-endian (network order) byte stream reader/writer used by all
// wire-format code (RTP, RTCP, STUN, AV1 dependency descriptor).
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scallop::util {

// Serializes integral fields in network byte order into a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }
  // Writes over `buf`, keeping its capacity: a caller that moves a
  // recycled buffer in and Take()s it back serializes without allocating.
  explicit ByteWriter(std::vector<uint8_t>&& buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU24(uint32_t v);  // low 24 bits
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteBytes(std::span<const uint8_t> bytes);
  void WriteString(std::string_view s);
  // Appends `n` copies of `fill`.
  void WritePadding(size_t n, uint8_t fill = 0);

  // Overwrites previously written bytes (e.g. RTCP length fixups).
  void PatchU16(size_t offset, uint16_t v);

  size_t size() const { return buf_.size(); }
  std::span<const uint8_t> data() const { return buf_; }
  std::vector<uint8_t> Take() && { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Reads integral fields in network byte order from a fixed buffer.
// All reads are bounds-checked; a failed read marks the reader broken and
// returns 0 — callers check ok() once after parsing a unit.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t ReadU8();
  uint16_t ReadU16();
  uint32_t ReadU24();
  uint32_t ReadU32();
  uint64_t ReadU64();
  // Reads exactly n bytes; returns empty span (and marks broken) on underrun.
  std::span<const uint8_t> ReadBytes(size_t n);
  std::string ReadString(size_t n);
  bool Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Ensure(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Hex dump helper for debugging and trace output.
std::string ToHex(std::span<const uint8_t> bytes);

}  // namespace scallop::util
