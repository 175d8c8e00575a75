// ChaCha20 block function against the RFC 7539 test vector, plus
// statistical sanity for the RandomSource helpers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "common/shake256.h"

namespace fd {
namespace {

TEST(ChaCha20, Rfc7539BlockVector) {
  // RFC 7539 section 2.3.2.
  std::uint32_t key[8];
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<std::uint32_t>(4 * i) | (static_cast<std::uint32_t>(4 * i + 1) << 8) |
             (static_cast<std::uint32_t>(4 * i + 2) << 16) |
             (static_cast<std::uint32_t>(4 * i + 3) << 24);
  }
  const std::uint32_t nonce[3] = {0x09000000, 0x4a000000, 0x00000000};
  std::uint8_t out[64];
  ChaCha20Prng::block(key, 1, nonce, out);
  EXPECT_EQ(to_hex(out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, DeterministicFromSeed) {
  ChaCha20Prng a(std::uint64_t{12345});
  ChaCha20Prng b(std::uint64_t{12345});
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
  ChaCha20Prng c(std::uint64_t{12346});
  int diffs = 0;
  ChaCha20Prng a2(std::uint64_t{12345});
  for (int i = 0; i < 100; ++i) diffs += (a2.next_u64() != c.next_u64());
  EXPECT_GT(diffs, 95);
}

TEST(ChaCha20, StringSeedsDiffer) {
  ChaCha20Prng a("hello");
  ChaCha20Prng b("world");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// The keystream one block at a time: ChaCha20Prng::block(c) for
// c = 0, 1, ... under the key and nonce ChaCha20Prng(seed) derives (the
// first 44 bytes of SHAKE256 over the seed's 8 little-endian bytes),
// handed out byte by byte.
class BlockStreamReference final : public RandomSource {
 public:
  explicit BlockStreamReference(std::uint64_t seed) {
    std::uint8_t material[8];
    for (int i = 0; i < 8; ++i) material[i] = static_cast<std::uint8_t>(seed >> (8 * i));
    Shake256 sh;
    sh.inject(material);
    sh.flip();
    std::uint8_t raw[44];
    sh.extract(raw);
    for (int i = 0; i < 8; ++i) key_[i] = word(raw + 4 * i);
    for (int i = 0; i < 3; ++i) nonce_[i] = word(raw + 32 + 4 * i);
  }
  void fill(std::span<std::uint8_t> out) override {
    for (std::uint8_t& b : out) {
      if (pos_ == sizeof(buf_)) {
        ChaCha20Prng::block(key_, counter_++, nonce_, buf_);
        pos_ = 0;
      }
      b = buf_[pos_++];
    }
  }

 private:
  static std::uint32_t word(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
  }

  std::uint32_t key_[8];
  std::uint32_t nonce_[3];
  std::uint32_t counter_ = 0;
  std::uint8_t buf_[64];
  std::size_t pos_ = sizeof(buf_);
};

TEST(ChaCha20, BlockKeystreamMatchesPerCounterBlocks) {
  // Odd fill sizes that straddle block (64 B) and refill boundaries,
  // interleaved with the fixed-width draws and the Gaussian's buffered
  // pair, in an order driven by a fixed schedule.
  constexpr std::size_t kSizes[] = {1, 3, 7, 8, 9, 31, 63, 64, 65, 127, 129,
                                    255, 511, 512, 513, 1000, 1023, 1025, 4097};
  ChaCha20Prng fast(std::uint64_t{0x5EED});
  BlockStreamReference ref(std::uint64_t{0x5EED});
  std::uint64_t schedule = 0x9E3779B97F4A7C15ULL;
  std::size_t bytes = 0;
  for (int step = 0; step < 4000; ++step) {
    schedule ^= schedule << 13;
    schedule ^= schedule >> 7;
    schedule ^= schedule << 17;
    switch (schedule % 5) {
      case 0: {
        const std::size_t n = kSizes[(schedule >> 8) % std::size(kSizes)];
        std::vector<std::uint8_t> a(n), b(n);
        fast.fill(a);
        ref.fill(b);
        ASSERT_EQ(a, b) << "fill of " << n << " at byte " << bytes;
        bytes += n;
        break;
      }
      case 1:
        ASSERT_EQ(fast.next_u8(), ref.next_u8()) << "at byte " << bytes;
        bytes += 1;
        break;
      case 2:
        ASSERT_EQ(fast.next_u64(), ref.next_u64()) << "at byte " << bytes;
        bytes += 8;
        break;
      case 3:
        ASSERT_EQ(fast.next_u16(), ref.next_u16()) << "at byte " << bytes;
        bytes += 2;
        break;
      default: {
        const double a = fast.gaussian();
        const double b = ref.gaussian();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
            << "at byte " << bytes;
        break;
      }
    }
  }
  EXPECT_GT(bytes, std::size_t{64 * 8 * 20});  // many refills crossed
}

TEST(ChaCha20, EmptyFillDrawsNothing) {
  ChaCha20Prng a(std::uint64_t{3});
  ChaCha20Prng b(std::uint64_t{3});
  a.fill({});
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RandomSource, UniformBounds) {
  ChaCha20Prng rng(std::uint64_t{7});
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(13), 13U);
    EXPECT_EQ(rng.uniform(1), 0U);
  }
}

TEST(RandomSource, UniformIsRoughlyUniform) {
  ChaCha20Prng rng(std::uint64_t{8});
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 5 * std::sqrt(kDraws / kBuckets));
  }
}

TEST(RandomSource, GaussianMoments) {
  ChaCha20Prng rng(std::uint64_t{9});
  constexpr int kDraws = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

}  // namespace
}  // namespace fd
