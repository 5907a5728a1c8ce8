// RFC 1321 MD5, implemented from scratch.
//
// The paper's MLB "implemented the Consistent Hashing functionality using
// the MD5 hash libraries" (§5); we reproduce that choice so ring placement
// semantics match. MD5 is used here purely as a mixing function — there is
// no cryptographic requirement.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace scale::hash {

/// 128-bit MD5 digest.
using Md5Digest = std::array<std::uint8_t, 16>;

/// Incremental MD5 (init / update / final), mirroring the RFC reference API
/// so arbitrarily large inputs can be hashed without buffering.
class Md5 {
 public:
  Md5();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Finalizes and returns the digest. The object must not be updated after.
  Md5Digest finish();

  /// One-shot convenience.
  static Md5Digest digest(std::string_view data);
  static Md5Digest digest(std::span<const std::uint8_t> data);

  /// Lowercase hex rendering of a digest (for tests against RFC vectors).
  static std::string hex(const Md5Digest& d);

  /// First 8 bytes of the digest as a little-endian uint64 — the ring
  /// position function.
  static std::uint64_t to_u64(const Md5Digest& d);

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[4];
  std::uint64_t total_bytes_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

/// Hash a 64-bit key (e.g. a GUTI's M-TMSI) to a ring position via MD5:
/// equals Md5::to_u64(Md5::digest(the key's 8 little-endian bytes)),
/// computed as a single compression of the one padded block.
std::uint64_t md5_u64(std::uint64_t key);

/// FNV-1a 64-bit — cheap non-cryptographic alternative used where hashing
/// is on the simulator's hot path and MD5 fidelity is not required.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

constexpr std::uint64_t fnv1a_u64(std::uint64_t key) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (key >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace scale::hash
