// SHAKE256 against FIPS 202 / NIST CAVP known-answer vectors.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/shake256.h"

namespace fd {
namespace {

std::string shake_hex(std::string_view msg, std::size_t out_len) {
  Shake256 sh;
  sh.inject(msg);
  sh.flip();
  std::vector<std::uint8_t> out(out_len);
  sh.extract(out);
  return to_hex(out);
}

TEST(Shake256, EmptyMessage) {
  // SHAKE256(""), first 32 bytes (NIST example values).
  EXPECT_EQ(shake_hex("", 32),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f");
}

TEST(Shake256, EmptyMessage64) {
  EXPECT_EQ(shake_hex("", 64),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
            "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be");
}

TEST(Shake256, Abc) {
  EXPECT_EQ(shake_hex("abc", 32),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739");
}

TEST(Shake256, LongInputCrossesRate) {
  // 200 'a' bytes: spans more than one 136-byte rate block.
  const std::string msg(200, 'a');
  Shake256 sh;
  sh.inject(msg);
  sh.flip();
  std::vector<std::uint8_t> out1(16);
  sh.extract(out1);
  // Same message injected in two chunks must give the same stream.
  Shake256 sh2;
  sh2.inject(std::string_view(msg).substr(0, 77));
  sh2.inject(std::string_view(msg).substr(77));
  sh2.flip();
  std::vector<std::uint8_t> out2(16);
  sh2.extract(out2);
  EXPECT_EQ(to_hex(out1), to_hex(out2));
}

TEST(Shake256, ExtractGranularityIrrelevant) {
  Shake256 a;
  a.inject("falcon");
  a.flip();
  std::vector<std::uint8_t> big(300);
  a.extract(big);

  Shake256 b;
  b.inject("falcon");
  b.flip();
  std::vector<std::uint8_t> pieced;
  while (pieced.size() < 300) {
    pieced.push_back(b.extract_u8());
  }
  EXPECT_EQ(to_hex(big), to_hex(pieced));
}

TEST(Shake256, U16BigEndianOrder) {
  Shake256 a;
  a.inject("x");
  a.flip();
  std::uint8_t bytes[2];
  a.extract(bytes);

  Shake256 b;
  b.inject("x");
  b.flip();
  const std::uint16_t v = b.extract_u16_be();
  EXPECT_EQ(v, (bytes[0] << 8) | bytes[1]);
}

TEST(Shake256, ResetReusesObject) {
  Shake256 sh;
  sh.inject("first");
  sh.flip();
  (void)sh.extract_u64();
  sh.reset();
  sh.inject("abc");
  sh.flip();
  std::vector<std::uint8_t> out(32);
  sh.extract(out);
  EXPECT_EQ(to_hex(out),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739");
}

// Squeezing in runs of any length -- across the 136-byte rate, at odd
// offsets, in one call longer than several blocks -- returns the bytes
// one-byte squeezes return, and both return the pinned stream.
TEST(Shake256, RunExtractMatchesByteExtract) {
  const std::string msg(301, 'q');
  Shake256 bytewise;
  bytewise.inject(msg);
  bytewise.flip();
  std::vector<std::uint8_t> want(2000);
  for (auto& b : want) b = bytewise.extract_u8();
  std::uint64_t fnv = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : want) {
    fnv ^= b;
    fnv *= 0x100000001B3ULL;
  }
  EXPECT_EQ(fnv, 0xAF6DBB52AC7C635EULL);

  const std::size_t schedules[][8] = {{1, 135, 1, 136, 137, 3, 271, 273},
                                      {136, 136, 272, 7, 129, 2, 408, 1},
                                      {5, 131, 135, 2, 545, 13, 11, 1},
                                      {999, 1, 1, 999, 0, 0, 0, 0}};
  for (const auto& runs : schedules) {
    Shake256 sh;
    sh.inject(msg);
    sh.flip();
    std::vector<std::uint8_t> got;
    for (const std::size_t len : runs) {
      std::vector<std::uint8_t> run(len);
      sh.extract(run);
      got.insert(got.end(), run.begin(), run.end());
    }
    ASSERT_LE(got.size(), want.size());
    EXPECT_EQ(to_hex(got), to_hex(std::span(want).first(got.size())));
  }

  // The 16- and 64-bit squeezes read the same stream.
  Shake256 mixed;
  mixed.inject(msg);
  mixed.flip();
  std::size_t pos = 0;
  while (pos + 10 <= want.size()) {
    EXPECT_EQ(mixed.extract_u16_be(), (want[pos] << 8) | want[pos + 1]) << pos;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | want[pos + 2 + static_cast<std::size_t>(i)];
    EXPECT_EQ(mixed.extract_u64(), v) << pos;
    pos += 10;
  }
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0xFF, 0x12, 0xAB};
  EXPECT_EQ(to_hex(data), "00ff12ab");
  EXPECT_EQ(from_hex("00ff12ab"), data);
  EXPECT_EQ(from_hex("00FF12AB"), data);
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace fd
