#include "hash/md5.h"

#include <cstring>
#include <utility>

#include "common/check.h"

namespace scale::hash {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u};

// Per-round shift amounts (RFC 1321 §3.4).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * abs(sin(i+1))) — spelled out so the implementation is
// self-contained and constexpr-checkable.
constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

inline std::uint32_t rotl32(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

// One MD5 step (RFC 1321 §3.4), step I of 64. The four working words
// rotate roles every step; indexing v by (I - role) mod 4 instead of moving
// them lets the fully unrolled rounds keep all four in registers.
template <int I>
inline void md5_step(std::uint32_t (&v)[4], const std::uint32_t (&m)[16]) {
  std::uint32_t& a = v[(64 - I) & 3];
  const std::uint32_t b = v[(65 - I) & 3];
  const std::uint32_t c = v[(66 - I) & 3];
  const std::uint32_t d = v[(67 - I) & 3];
  constexpr int kRound = I / 16;
  constexpr int kWord = kRound == 0   ? I
                        : kRound == 1 ? (5 * I + 1) % 16
                        : kRound == 2 ? (3 * I + 5) % 16
                                      : (7 * I) % 16;
  const std::uint32_t f = kRound == 0   ? (b & c) | (~b & d)
                          : kRound == 1 ? (d & b) | (~d & c)
                          : kRound == 2 ? b ^ c ^ d
                                        : c ^ (b | ~d);
  a = b + rotl32(a + f + kSine[I] + m[kWord], kShift[I]);
}

template <std::size_t... I>
inline void md5_steps(std::uint32_t (&v)[4], const std::uint32_t (&m)[16],
                      std::index_sequence<I...>) {
  (md5_step<static_cast<int>(I)>(v, m), ...);
}

/// The MD5 compression function: folds one 16-word block into `state`.
inline void md5_compress(std::uint32_t (&state)[4],
                         const std::uint32_t (&m)[16]) {
  std::uint32_t v[4] = {state[0], state[1], state[2], state[3]};
  md5_steps(v, m, std::make_index_sequence<64>{});
  for (int i = 0; i < 4; ++i) state[i] += v[i];
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

}  // namespace

Md5::Md5() {
  state_[0] = kInit[0];
  state_[1] = kInit[1];
  state_[2] = kInit[2];
  state_[3] = kInit[3];
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  md5_compress(state_, m);
}

void Md5::update(std::span<const std::uint8_t> data) {
  SCALE_CHECK_MSG(!finished_, "Md5::update after finish");
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_, data.data() + offset, buffered_);
  }
}

void Md5::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Md5Digest Md5::finish() {
  SCALE_CHECK_MSG(!finished_, "Md5::finish called twice");
  finished_ = true;

  const std::uint64_t bit_len = total_bytes_ * 8;
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit LE length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  // Temporarily mark unfinished so update() accepts the padding, then fix
  // the recorded length (padding must not count).
  finished_ = false;
  const std::uint64_t saved_total = total_bytes_;
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>((bit_len >> (8 * i)) & 0xFF);
  update(std::span<const std::uint8_t>(len_bytes, 8));
  total_bytes_ = saved_total;
  finished_ = true;
  SCALE_CHECK(buffered_ == 0);

  Md5Digest out;
  for (int i = 0; i < 4; ++i) store_le32(out.data() + 4 * i, state_[i]);
  return out;
}

Md5Digest Md5::digest(std::string_view data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

Md5Digest Md5::digest(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string Md5::hex(const Md5Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

std::uint64_t Md5::to_u64(const Md5Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(d[static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

// The 8 little-endian key bytes fit one block with their padding: the key
// words, the 0x80 terminator, zeros, and the 64-bit message length (64
// bits). One compression, no buffering; the result is the digest's first 8
// bytes read little-endian, i.e. state words 0 and 1.
std::uint64_t md5_u64(std::uint64_t key) {
  std::uint32_t m[16] = {static_cast<std::uint32_t>(key),
                         static_cast<std::uint32_t>(key >> 32), 0x80u};
  m[14] = 64;
  std::uint32_t state[4] = {kInit[0], kInit[1], kInit[2], kInit[3]};
  md5_compress(state, m);
  return static_cast<std::uint64_t>(state[0]) |
         (static_cast<std::uint64_t>(state[1]) << 32);
}

}  // namespace scale::hash
