#include "util/bytes.hpp"

namespace scallop::util {

void ByteWriter::WriteU8(uint8_t v) { buf_.push_back(v); }

void ByteWriter::WriteU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::WriteU24(uint32_t v) {
  buf_.push_back(static_cast<uint8_t>(v >> 16));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::WriteU32(uint32_t v) {
  buf_.push_back(static_cast<uint8_t>(v >> 24));
  buf_.push_back(static_cast<uint8_t>(v >> 16));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::WriteU64(uint64_t v) {
  WriteU32(static_cast<uint32_t>(v >> 32));
  WriteU32(static_cast<uint32_t>(v));
}

void ByteWriter::WriteBytes(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WriteString(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::WritePadding(size_t n, uint8_t fill) {
  buf_.insert(buf_.end(), n, fill);
}

void ByteWriter::PatchU16(size_t offset, uint16_t v) {
  if (offset + 2 > buf_.size()) return;
  buf_[offset] = static_cast<uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<uint8_t>(v);
}

bool ByteReader::Ensure(size_t n) {
  if (!ok_ || pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::ReadU8() {
  if (!Ensure(1)) return 0;
  return data_[pos_++];
}

uint16_t ByteReader::ReadU16() {
  if (!Ensure(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

uint32_t ByteReader::ReadU24() {
  if (!Ensure(3)) return 0;
  uint32_t v = static_cast<uint32_t>(data_[pos_]) << 16 |
               static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
               static_cast<uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

uint32_t ByteReader::ReadU32() {
  if (!Ensure(4)) return 0;
  uint32_t v = static_cast<uint32_t>(data_[pos_]) << 24 |
               static_cast<uint32_t>(data_[pos_ + 1]) << 16 |
               static_cast<uint32_t>(data_[pos_ + 2]) << 8 |
               static_cast<uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

uint64_t ByteReader::ReadU64() {
  uint64_t hi = ReadU32();
  uint64_t lo = ReadU32();
  return hi << 32 | lo;
}

std::span<const uint8_t> ByteReader::ReadBytes(size_t n) {
  if (!Ensure(n)) return {};
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::ReadString(size_t n) {
  auto bytes = ReadBytes(n);
  return std::string(bytes.begin(), bytes.end());
}

bool ByteReader::Skip(size_t n) {
  if (!Ensure(n)) return false;
  pos_ += n;
  return true;
}

std::string ToHex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace scallop::util
