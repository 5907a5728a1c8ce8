#include "proto/codec.h"

namespace scale::proto {

namespace {
enum class PduFamily : std::uint8_t {
  kS1ap = 1,
  kS11 = 2,
  kS6 = 3,
  kCluster = 4,
};
}  // namespace

void encode_pdu_into(const Pdu& pdu, ByteWriter& w) {
  std::visit(
      [&w](const auto& family) {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, S1apMessage>) {
          w.u8(static_cast<std::uint8_t>(PduFamily::kS1ap));
          encode_s1ap(family, w);
        } else if constexpr (std::is_same_v<T, S11Message>) {
          w.u8(static_cast<std::uint8_t>(PduFamily::kS11));
          encode_s11(family, w);
        } else if constexpr (std::is_same_v<T, S6Message>) {
          w.u8(static_cast<std::uint8_t>(PduFamily::kS6));
          encode_s6(family, w);
        } else {
          w.u8(static_cast<std::uint8_t>(PduFamily::kCluster));
          encode_cluster(family, w);
        }
      },
      pdu);
}

std::vector<std::uint8_t> encode_pdu(const Pdu& pdu) {
  ByteWriter w;
  encode_pdu_into(pdu, w);
  return w.take();
}

PooledBuffer encode_pdu_pooled(const Pdu& pdu) {
  PooledBuffer buf = BufferPool::local().acquire(kPduReserveBytes);
  ByteWriter w(std::move(*buf));
  encode_pdu_into(pdu, w);
  *buf = w.take();
  return buf;
}

Pdu decode_pdu(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto family = static_cast<PduFamily>(r.u8());
  Pdu out;
  switch (family) {
    case PduFamily::kS1ap: out = decode_s1ap(r); break;
    case PduFamily::kS11: out = decode_s11(r); break;
    case PduFamily::kS6: out = decode_s6(r); break;
    case PduFamily::kCluster: out = decode_cluster(r); break;
    default:
      throw CodecError("unknown PDU family " +
                       std::to_string(static_cast<int>(family)));
  }
  r.expect_end();
  return out;
}

std::size_t wire_size(const Pdu& pdu) {
  ByteWriter w = ByteWriter::counting();
  encode_pdu_into(pdu, w);
  return w.size();
}

const char* pdu_name(const Pdu& pdu) {
  return std::visit(
      [](const auto& family) -> const char* {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, S1apMessage>)
          return s1ap_name(family);
        else if constexpr (std::is_same_v<T, S11Message>)
          return s11_name(family);
        else if constexpr (std::is_same_v<T, S6Message>)
          return s6_name(family);
        else
          return cluster_name(family);
      },
      pdu);
}

}  // namespace scale::proto
