#include "proto/codec.h"

#include <array>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace scale::proto {

namespace {

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsVariant = false;
template <typename... T>
inline constexpr bool kIsVariant<std::variant<T...>> = true;

/// Decoding (a ByteReader) rather than encoding or counting (a ByteWriter).
template <typename IO>
inline constexpr bool kReading = std::is_same_v<IO, ByteReader>;

/// A field carried on the wire as the scalar type W.
template <typename W, typename V>
void scalar(ByteWriter& w, const V& v) {
  w.put(static_cast<W>(v));
}
template <typename W, typename V>
void scalar(ByteReader& r, V& v) {
  v = static_cast<V>(r.get<W>());
}

/// Wire tag of alternative I of a tagged variant: the message's kType, or,
/// for the Pdu itself (whose alternatives are the four families), I + 1.
template <typename V, std::size_t I>
constexpr std::uint8_t tag_of() {
  using A = std::variant_alternative_t<I, V>;
  if constexpr (requires { A::kType; })
    return static_cast<std::uint8_t>(A::kType);
  else
    return static_cast<std::uint8_t>(I + 1);
}

template <typename V>
inline constexpr auto kTags = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array<std::uint8_t, sizeof...(I)>{tag_of<V, I>()...};
}(std::make_index_sequence<std::variant_size_v<V>>{});

void encode_boxed(const PduRef& ref, ByteWriter& w);
[[nodiscard]] PduRef decode_boxed(ByteReader& r);
template <typename IO, typename V>
void tagged(IO& io, V& v);

/// The one description of the wire format: writes `v` to a ByteWriter, or
/// reads it from a ByteReader, by its type. A struct is its kFields in
/// order; the other cases are the field types those lists contain.
template <typename IO, typename V>
void field(IO& io, V& v) {
  using T = std::remove_const_t<V>;
  if constexpr (requires { T::kFields; }) {
    std::apply([&io, &v](auto... member) { (field(io, v.*member), ...); },
               T::kFields);
  } else if constexpr (std::is_enum_v<T>) {
    scalar<std::underlying_type_t<T>>(io, v);
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    scalar<std::uint32_t>(io, v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    scalar<T>(io, v);
  } else if constexpr (kIsOptional<T>) {  // presence bool, then the value
    if constexpr (kReading<IO>) {
      if (io.boolean()) field(io, v.emplace());
    } else {
      io.boolean(v.has_value());
      if (v) field(io, *v);
    }
  } else if constexpr (kIsVector<T>) {  // u16 count, then the elements
    if constexpr (kReading<IO>) {
      const std::uint16_t n = io.u16();
      v.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i) field(io, v.emplace_back());
    } else {
      if (v.size() > UINT16_MAX) throw CodecError("too many list elements");
      io.u16(static_cast<std::uint16_t>(v.size()));
      for (const auto& e : v) field(io, e);
    }
  } else if constexpr (std::is_same_v<T, PduRef>) {
    if constexpr (kReading<IO>)
      v = decode_boxed(io);
    else
      encode_boxed(v, io);
  } else {
    static_assert(kIsVariant<T>, "no wire form for this field type");
    tagged(io, v);
  }
}

/// A variant as a u8 tag (tag_of) and then the alternative it holds.
/// Decoding folds over the alternatives for the one whose tag matches.
template <typename IO, typename V>
void tagged(IO& io, V& v) {
  using T = std::remove_const_t<V>;
  if constexpr (kReading<IO>) {
    const std::uint8_t tag = io.u8();
    const bool known = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return ((tag == tag_of<T, I>() &&
               (field(io, v.template emplace<I>()), true)) ||
              ...);
    }(std::make_index_sequence<std::variant_size_v<T>>{});
    if (!known) throw CodecError("unknown PDU tag " + std::to_string(tag));
  } else {
    io.u8(kTags<T>[v.index()]);
    std::visit([&io](const auto& alt) { field(io, alt); }, v);
  }
}

/// Nested PDU as a u32 length + its encoding, written in place: the length
/// is reserved, the inner PDU encoded straight into `w`, then the length
/// back-patched — no temporary buffer per nesting level. A counting writer
/// adds the length word and the box's memoised size instead of re-walking
/// the inner PDU. An absent PDU (a null ref, e.g. the OverloadReject that is
/// a pure backoff hint) is a zero length word: every encoded PDU is at least
/// its one-byte family tag, so the two cannot be confused.
void encode_boxed(const PduRef& ref, ByteWriter& w) {
  if (!ref) {
    w.u32(0);
    return;
  }
  if (w.is_counting()) {
    w.skip(4 + ref->wire_bytes);
    return;
  }
  const std::size_t len_at = w.size();
  w.u32(0);
  tagged(w, ref->value);
  const std::size_t len = w.size() - len_at - 4;
  if (len > UINT32_MAX) throw CodecError("inner PDU too large");
  w.patch_u32(len_at, static_cast<std::uint32_t>(len));
}

PduRef decode_boxed(ByteReader& r) {
  const std::uint32_t len = r.u32();
  if (len == 0) return nullptr;
  const auto bytes = r.bytes(len);
  return box(decode_pdu(bytes));
}

/// A message's kName; for a variant, that of the alternative it holds.
template <typename T>
const char* name_of(const T& m) {
  if constexpr (kIsVariant<T>)
    return std::visit([](const auto& alt) { return name_of(alt); }, m);
  else
    return T::kName;
}

}  // namespace

void encode_nas(const NasMessage& msg, ByteWriter& w) { tagged(w, msg); }

NasMessage decode_nas(ByteReader& r) {
  NasMessage msg;
  tagged(r, msg);
  return msg;
}

std::vector<std::uint8_t> encode_pdu(const Pdu& pdu) {
  ByteWriter w;
  tagged(w, pdu);
  return w.take();
}

PooledBuffer encode_pdu_pooled(const Pdu& pdu) {
  PooledBuffer buf = BufferPool::local().acquire(kPduReserveBytes);
  ByteWriter w(std::move(*buf));
  tagged(w, pdu);
  *buf = w.take();
  return buf;
}

Pdu decode_pdu(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Pdu out;
  tagged(r, out);
  r.expect_end();
  return out;
}

std::size_t wire_size(const Pdu& pdu) {
  ByteWriter w = ByteWriter::counting();
  tagged(w, pdu);
  return w.size();
}

const char* pdu_name(const Pdu& pdu) { return name_of(pdu); }
const char* nas_name(const NasMessage& msg) { return name_of(msg); }
const char* s1ap_name(const S1apMessage& msg) { return name_of(msg); }
const char* s11_name(const S11Message& msg) { return name_of(msg); }
const char* s6_name(const S6Message& msg) { return name_of(msg); }
const char* cluster_name(const ClusterMessage& msg) { return name_of(msg); }

}  // namespace scale::proto
