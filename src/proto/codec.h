// Wire codec for top-level PDUs.
//
// Every message struct lists its wire fields once, in wire order, as
// `kFields` (a tuple of member pointers), next to its `kType` tag and
// `kName`. One type-directed field visitor (codec.cpp) walks those lists
// against a ByteWriter to encode, against a counting ByteWriter to size, and
// against a ByteReader to decode, so the three cannot disagree on a layout.
//
// The simulator only sizes PDUs, once per box and without materializing a
// buffer (PduBox::wire_bytes feeds network byte accounting).
// encode_pdu/decode_pdu round-trip every message for the codec tests and
// fuzzers, perf_core's codec phases and WholeRun's replay.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "proto/buffer.h"
#include "proto/buffer_pool.h"
#include "proto/pdu.h"

namespace scale::proto {

std::vector<std::uint8_t> encode_pdu(const Pdu& pdu);
[[nodiscard]] Pdu decode_pdu(std::span<const std::uint8_t> bytes);

/// Encode into a buffer leased from BufferPool::local(): zero allocations in
/// steady state. The handle recycles the storage when it goes out of scope.
PooledBuffer encode_pdu_pooled(const Pdu& pdu);

// std::size_t wire_size(const Pdu&) is declared in pdu.h, because every
// PduBox sizes itself once, when it is built: the encoder runs against a
// counting ByteWriter, where a nested PduRef counts as its length word plus
// the inner box's memoised wire_bytes. It always equals
// encode_pdu(pdu).size() and never allocates.

}  // namespace scale::proto
