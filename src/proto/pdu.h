// Top-level PDU: anything that can traverse a link in the system — a
// standard-interface message (S1AP / S11 / S6) or a cluster-internal one.
//
// A PDU is boxed once, by the code that creates it (proto::box), and crosses
// every hop after that as a 16-byte PduRef: the fabric, the reliability
// shim, every Endpoint::receive and every relay pass the same box on, and a
// relay that wraps a received PDU puts the received box itself into the
// envelope (DESIGN.md §8, "One box per PDU").
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

#include "proto/buffer_pool.h"
#include "proto/cluster.h"
#include "proto/s11.h"
#include "proto/s1ap.h"
#include "proto/s6.h"

namespace scale::proto {

using Pdu = std::variant<S1apMessage, S11Message, S6Message, ClusterMessage>;

/// Encoded size in bytes (codec.h): always equal to encode_pdu(pdu).size(),
/// computed without materializing a buffer. A nested PduRef counts as its
/// u32 length word plus the inner box's memoised wire_bytes.
std::size_t wire_size(const Pdu& pdu);

/// The Pdu alternative (message family) that carries message type T.
template <typename T>
using FamilyOf = std::conditional_t<
    std::is_constructible_v<S1apMessage, T>, S1apMessage,
    std::conditional_t<
        std::is_constructible_v<S11Message, T>, S11Message,
        std::conditional_t<std::is_constructible_v<S6Message, T>, S6Message,
                           ClusterMessage>>>;

/// Wrap a message into a Pdu: a concrete message struct, a family variant,
/// or a Pdu itself (passed through). A message struct is constructed in
/// place inside its family, inside the Pdu — no intermediate variant.
template <typename M, typename T = std::remove_cvref_t<M>>
Pdu make_pdu(M&& msg) {
  if constexpr (std::is_same_v<T, Pdu>)
    return std::forward<M>(msg);
  else if constexpr (std::is_same_v<FamilyOf<T>, T>)
    return Pdu{std::in_place_type<T>, std::forward<M>(msg)};
  else
    return Pdu{std::in_place_type<FamilyOf<T>>, std::in_place_type<T>,
               std::forward<M>(msg)};
}

/// One PDU in flight. Immutable: a PduRef points to a const box, so every
/// holder — a delivery batch, a retransmit queue, an envelope, a CPU-queue
/// capture — sees the same bytes. The only constructor sizes the PDU, so
/// wire_bytes is right by construction and no hop ever re-encodes it.
struct PduBox {
  template <typename M>
  explicit PduBox(M&& msg)
      : value(make_pdu(std::forward<M>(msg))), wire_bytes(wire_size(value)) {}

  const Pdu value;
  const std::size_t wire_bytes;  ///< == encode_pdu(value).size()
};

/// Box a message (anything make_pdu takes) for sending. allocate_shared with
/// the free-list allocator: one recycled block carries both the control
/// block and the PduBox (see buffer_pool.h).
template <typename M>
PduRef box(M&& msg) {
  return std::allocate_shared<const PduBox>(BoxAlloc<const PduBox>{},
                                            std::forward<M>(msg));
}

/// The message of type T that `pdu` holds — a concrete message struct or a
/// family variant — or nullptr when it holds something else.
template <typename T>
const T* message_if(const Pdu& pdu) {
  if constexpr (std::is_same_v<FamilyOf<T>, T>) {
    return std::get_if<T>(&pdu);
  } else {
    const auto* family = std::get_if<FamilyOf<T>>(&pdu);
    return family == nullptr ? nullptr : std::get_if<T>(family);
  }
}

/// The message of type T inside a box the caller knows holds one.
template <typename T>
const T& message(const PduRef& ref) {
  const T* m = message_if<T>(ref->value);
  if (m == nullptr) throw std::bad_variant_access();
  return *m;
}

const char* pdu_name(const Pdu& pdu);

}  // namespace scale::proto
