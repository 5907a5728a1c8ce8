#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

#include <cstdint>
#include <span>
#include <string>

#include "hash/md5.h"

namespace scale::hash {
namespace {

// RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(Md5::digest("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(Md5::digest("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex(Md5::digest("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(Md5::digest("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(Md5::digest("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::hex(Md5::digest("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnop"
                                 "qrstuvwxyz0123456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::hex(Md5::digest(
                "123456789012345678901234567890123456789012345678901234567890"
                "12345678901234567890")),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string data(1000, 'x');
  Md5 h;
  for (std::size_t i = 0; i < data.size(); i += 7)
    h.update(std::string_view(data).substr(i, 7));
  EXPECT_EQ(Md5::hex(h.finish()), Md5::hex(Md5::digest(data)));
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding edges.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string data(len, 'q');
    Md5 incremental;
    incremental.update(std::string_view(data).substr(0, len / 2));
    incremental.update(std::string_view(data).substr(len / 2));
    EXPECT_EQ(Md5::hex(incremental.finish()), Md5::hex(Md5::digest(data)))
        << "length " << len;
  }
}

TEST(Md5, FinishTwiceRejected) {
  Md5 h;
  h.update("abc");
  h.finish();
  EXPECT_THROW(h.finish(), scale::CheckError);
}

TEST(Md5, UpdateAfterFinishRejected) {
  Md5 h;
  h.finish();
  EXPECT_THROW(h.update("x"), scale::CheckError);
}

TEST(Md5, ToU64IsLittleEndianPrefix) {
  const auto d = Md5::digest("abc");
  std::uint64_t expected = 0;
  for (int i = 0; i < 8; ++i)
    expected |= static_cast<std::uint64_t>(d[static_cast<std::size_t>(i)])
                << (8 * i);
  EXPECT_EQ(Md5::to_u64(d), expected);
}

TEST(Md5, KeyHashingIsDeterministicAndSpread) {
  EXPECT_EQ(md5_u64(12345), md5_u64(12345));
  EXPECT_NE(md5_u64(12345), md5_u64(12346));
  // Crude avalanche check: consecutive keys differ in many bits.
  int total_bits = 0;
  for (std::uint64_t k = 0; k < 64; ++k)
    total_bits += __builtin_popcountll(md5_u64(k) ^ md5_u64(k + 1));
  EXPECT_GT(total_bits / 64, 20);
}

// md5_u64 builds the single padded block itself; the incremental path
// (update + finish padding) is the oracle.
TEST(Md5, KeyHashMatchesIncrementalDigest) {
  const auto reference = [](std::uint64_t key) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<std::uint8_t>(key >> (8 * i));
    return Md5::to_u64(Md5::digest(std::span<const std::uint8_t>(bytes, 8)));
  };
  EXPECT_EQ(md5_u64(0), reference(0));
  EXPECT_EQ(md5_u64(~0ull), reference(~0ull));
  Rng rng(0xD16E57ull);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.next_u64();
    ASSERT_EQ(md5_u64(key), reference(key)) << "key=" << key;
  }
}

TEST(Fnv1a, KnownValues) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xAF63DC4C8601EC8Cull);
}

TEST(Fnv1a, U64Deterministic) {
  EXPECT_EQ(fnv1a_u64(42), fnv1a_u64(42));
  EXPECT_NE(fnv1a_u64(42), fnv1a_u64(43));
}

}  // namespace
}  // namespace scale::hash
