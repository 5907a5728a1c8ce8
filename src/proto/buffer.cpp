#include "proto/buffer.h"

namespace scale::proto {

// ----------------------------------------------------------------- ByteWriter

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

std::vector<std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void ByteReader::expect_end() const {
  if (!at_end())
    throw CodecError("trailing bytes after PDU: " +
                     std::to_string(remaining()));
}

}  // namespace scale::proto
