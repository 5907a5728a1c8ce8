// Wire codec for top-level PDUs.
//
// encode_pdu/decode_pdu round-trip every message in the system; the MLB's
// protocol-parsing path and the codec tests/benches exercise them. wire_size
// reports the encoded size for network byte accounting by running the same
// encoders against a counting ByteWriter, so no buffer is materialized.
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

/// Encode into an existing writer (family tag + body); the primitive the
/// allocating and pooled entry points share.
void encode_pdu_into(const Pdu& pdu, ByteWriter& w);

/// Encode into a buffer leased from BufferPool::local(): zero allocations in
/// steady state. The handle recycles the storage when it goes out of scope.
PooledBuffer encode_pdu_pooled(const Pdu& pdu);

/// Encoded size in bytes: encode_pdu_into against a counting ByteWriter, so
/// it always equals encode_pdu(pdu).size() and never allocates.
std::size_t wire_size(const Pdu& pdu);

}  // namespace scale::proto
