#include "proto/buffer.h"

#include <bit>
#include <cstring>

namespace scale::proto {

// ----------------------------------------------------------------- ByteWriter

void ByteWriter::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  if (counting_)
    counted_ += data.size();
  else
    out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  if (s.size() > UINT16_MAX) throw CodecError("string too long to encode");
  u16(static_cast<std::uint16_t>(s.size()));
  bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void ByteWriter::patch_u32(std::size_t pos, std::uint32_t v) {
  if (counting_) return;
  if (pos + 4 > out_.size()) throw CodecError("patch past end of buffer");
  for (std::size_t i = 0; i < 4; ++i)
    out_[pos + i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
}

// ----------------------------------------------------------------- ByteReader

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > data_.size())
    throw CodecError("truncated PDU: need " + std::to_string(n) +
                     " bytes, have " + std::to_string(remaining()));
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("bad boolean encoding");
  return v == 1;
}

std::vector<std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string ByteReader::str() {
  const std::uint16_t len = u16();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

void ByteReader::expect_end() const {
  if (!at_end())
    throw CodecError("trailing bytes after PDU: " +
                     std::to_string(remaining()));
}

}  // namespace scale::proto
