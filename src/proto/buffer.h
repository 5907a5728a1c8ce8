// Bounds-checked binary readers/writers for the wire codecs.
//
// All multi-byte integers are big-endian (network order), as on the real
// S1AP/GTP-C wires. Truncated or trailing input raises CodecError — the MLB
// must never crash on a malformed PDU.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace scale::proto {

/// Raised on any decode violation (truncation, bad tag, range error).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Big-endian writer over a growable byte vector — or, built with
/// counting(), a writer that stores nothing and only advances size(). Every
/// encoder takes a ByteWriter&, so running one against a counting writer
/// measures a PDU's wire size with the exact code that would encode it: no
/// second size table to keep in sync, and no buffer traffic.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopt existing storage (cleared, capacity kept) so pooled buffers can
  /// be encoded into without a fresh allocation; reclaim it with take().
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : out_(std::move(storage)) {
    out_.clear();
  }

  /// A writer that counts bytes instead of storing them: size() is the
  /// encoded length, data() stays empty.
  static ByteWriter counting() {
    ByteWriter w;
    w.counting_ = true;
    return w;
  }

  void u8(std::uint8_t v) { put_be<1>(v); }
  void u16(std::uint16_t v) { put_be<2>(v); }
  void u32(std::uint32_t v) { put_be<4>(v); }
  void u64(std::uint64_t v) { put_be<8>(v); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u16) string.
  void str(std::string_view s);

  /// Overwrite the u32 written at byte offset `pos` — the back-patch for a
  /// length prefix whose value is known only after the payload is written.
  void patch_u32(std::size_t pos, std::uint32_t v);

  template <typename T>
  void optional(const std::optional<T>& v, void (ByteWriter::*put)(T)) {
    boolean(v.has_value());
    if (v) (this->*put)(*v);
  }

  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return counting_ ? counted_ : out_.size(); }

 private:
  template <std::size_t N>
  void put_be(std::uint64_t v) {
    if (counting_) {
      counted_ += N;
      return;
    }
    const std::size_t at = out_.size();
    out_.resize(at + N);
    for (std::size_t i = 0; i < N; ++i)
      out_[at + i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
  }

  std::vector<std::uint8_t> out_;
  std::size_t counted_ = 0;  ///< bytes "written" by a counting writer
  bool counting_ = false;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n);
  [[nodiscard]] std::string str();

  template <typename T>
  std::optional<T> optional(T (ByteReader::*get)()) {
    if (!boolean()) return std::nullopt;
    return (this->*get)();
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  /// Throws CodecError unless the whole buffer was consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace scale::proto
