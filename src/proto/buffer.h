// Bounds-checked binary readers/writers for the wire codecs.
//
// All multi-byte integers are big-endian (network order), as on the real
// S1AP/GTP-C wires. Truncated or trailing input raises CodecError: decode
// parses bytes it did not write — the codec tests and fuzzers, perf_core's
// codec phases and WholeRun's replay — so it must never crash on them.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
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

  /// Any wire scalar by its type: an unsigned integer big-endian in its
  /// own width, a bool as one 0/1 byte, a double as its IEEE-754 bits.
  template <typename W>
  void put(W v) {
    if constexpr (std::is_same_v<W, bool>) {
      put_be<1>(v ? 1u : 0u);
    } else if constexpr (std::is_same_v<W, double>) {
      put_be<8>(std::bit_cast<std::uint64_t>(v));
    } else {
      static_assert(std::is_unsigned_v<W>, "no wire form for this scalar");
      put_be<sizeof(W)>(v);
    }
  }
  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(v); }
  void boolean(bool v) { put(v); }

  /// Overwrite the u32 written at byte offset `pos` — the back-patch for a
  /// length prefix whose value is known only after the payload is written.
  void patch_u32(std::size_t pos, std::uint32_t v);

  /// A counting writer's "advance by n bytes" (a span already sized
  /// elsewhere, e.g. a boxed inner PDU's memoised length).
  void skip(std::size_t n) {
    if (!counting_) throw CodecError("skip on a storing writer");
    counted_ += n;
  }
  bool is_counting() const { return counting_; }

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

  /// The scalar ByteWriter::put<W> wrote; a bool byte other than 0/1
  /// throws.
  template <typename W>
  [[nodiscard]] W get() {
    if constexpr (std::is_same_v<W, bool>) {
      const std::uint64_t v = get_be<1>();
      if (v > 1) throw CodecError("bad boolean encoding");
      return v == 1;
    } else if constexpr (std::is_same_v<W, double>) {
      return std::bit_cast<double>(get_be<8>());
    } else {
      static_assert(std::is_unsigned_v<W>, "no wire form for this scalar");
      return static_cast<W>(get_be<sizeof(W)>());
    }
  }
  [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() { return get<double>(); }
  [[nodiscard]] bool boolean() { return get<bool>(); }
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  /// Throws CodecError unless the whole buffer was consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  template <std::size_t N>
  std::uint64_t get_be() {
    need(N);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += N;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace scale::proto
