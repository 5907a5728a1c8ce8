#include <gtest/gtest.h>

#include "common/check.h"

#include "proto/buffer.h"

namespace scale::proto {
namespace {

TEST(ByteWriter, BigEndianEncoding) {
  ByteWriter w;
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0], 0x12);
  EXPECT_EQ(d[1], 0x34);
  EXPECT_EQ(d[2], 0xDE);
  EXPECT_EQ(d[5], 0xEF);
}

TEST(ByteRoundTrip, AllScalarTypes) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0x01234567);
  w.u64(0x89ABCDEF01234567ull);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0x01234567u);
  EXPECT_EQ(r.u64(), 0x89ABCDEF01234567ull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(ByteRoundTrip, NegativeAndSpecialDoubles) {
  ByteWriter w;
  w.f64(-0.0);
  w.f64(1e308);
  w.f64(-12345.6789);
  ByteReader r(w.data());
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_DOUBLE_EQ(r.f64(), 1e308);
  EXPECT_DOUBLE_EQ(r.f64(), -12345.6789);
}

TEST(ByteReader, TruncationThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_NO_THROW((void)r.u8());
  EXPECT_THROW((void)r.u32(), CodecError);
}

TEST(ByteReader, BadBooleanThrows) {
  const std::uint8_t bytes[] = {2};
  ByteReader r(bytes);
  EXPECT_THROW((void)r.boolean(), CodecError);
}

TEST(ByteReader, TrailingBytesDetected) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.data());
  (void)r.u16();  // value irrelevant; advancing past the first field
  EXPECT_THROW(r.expect_end(), CodecError);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(ByteReader, BytesExtraction) {
  const std::uint8_t payload[] = {1, 2, 3, 4};
  ByteReader r(payload);
  const auto out = r.bytes(4);
  EXPECT_EQ(out, std::vector<std::uint8_t>({1, 2, 3, 4}));
}

TEST(ByteWriter, CountingWriterSizesWithoutStoring) {
  auto put_all = [](ByteWriter& w) {
    w.u8(1);
    w.u16(2);
    w.u32(3);
    w.u64(4);
    w.f64(0.5);
    w.boolean(true);
    w.patch_u32(1, 0xFFFFFFFF);
  };
  ByteWriter stored;
  put_all(stored);
  ByteWriter counted = ByteWriter::counting();
  put_all(counted);
  EXPECT_EQ(counted.size(), stored.size());
  EXPECT_EQ(counted.size(), 1u + 2 + 4 + 8 + 8 + 1);
  EXPECT_TRUE(counted.data().empty());
}

TEST(ByteWriter, PatchU32OverwritesInPlace) {
  ByteWriter w;
  w.u8(0xAA);
  w.u32(0);
  w.u8(0xBB);
  w.patch_u32(1, 0x01020304);
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{0xAA, 1, 2, 3, 4, 0xBB}));
  EXPECT_THROW(w.patch_u32(3, 0), CodecError);
}

}  // namespace
}  // namespace scale::proto
