// ChaCha20 block function against the RFC 7539 test vector, plus
// statistical sanity for the RandomSource helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <iterator>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "common/shake256.h"
#include "common/ziggurat.h"

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

TEST(ChaCha20, EveryBodyMatchesBlockReference) {
  // Each refill body this CPU runs (the portable one always) against 16
  // calls of block(), at counters whose 16-block run crosses 2^32.
  const auto bodies = detail::chacha_bodies();
  ASSERT_FALSE(bodies.empty());
  EXPECT_STREQ(bodies.front().name, "portable");
  std::uint32_t key[8];
  std::uint32_t nonce[3];
  ChaCha20Prng material(std::uint64_t{0xB0D1E5});
  for (std::uint32_t& k : key) k = static_cast<std::uint32_t>(material.next_u64());
  for (std::uint32_t& n : nonce) n = static_cast<std::uint32_t>(material.next_u64());
  for (const auto& body : bodies) {
    for (const std::uint32_t counter :
         {0U, 1U, 16U, 0x7FFFFFFFU, 0xFFFFFFF0U, 0xFFFFFFF1U, 0xFFFFFFF8U, 0xFFFFFFFFU}) {
      std::uint8_t got[16 * 64];
      body.blocks16(key, counter, nonce, got);
      for (std::uint32_t b = 0; b < 16; ++b) {
        std::uint8_t want[64];
        ChaCha20Prng::block(key, counter + b, nonce, want);
        ASSERT_EQ(std::vector<std::uint8_t>(got + 64 * b, got + 64 * (b + 1)),
                  std::vector<std::uint8_t>(want, want + 64))
            << body.name << " counter " << counter << " block " << b;
      }
    }
  }
  // Fills that straddle the 1 KiB refill buffer, through the dispatched
  // body, against the per-block stream.
  ChaCha20Prng fast(std::uint64_t{0xB0D1E6});
  BlockStreamReference ref(std::uint64_t{0xB0D1E6});
  for (const std::size_t n : {1000, 48, 1, 1023, 1024, 1025, 2047, 3000, 64, 5}) {
    std::vector<std::uint8_t> a(n), b(n);
    fast.fill(a);
    ref.fill(b);
    ASSERT_EQ(a, b) << "fill of " << n;
  }
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

// --- device noise: the table ziggurat ------------------------------------

TEST(Normal, ZigguratTablesHaveEqualLayers) {
  const auto& t = ziggurat::tables();
  EXPECT_EQ(t.x[1], ziggurat::kR);
  EXPECT_EQ(t.x[ziggurat::kLayers], 0.0);
  EXPECT_EQ(t.f[ziggurat::kLayers], 1.0);
  const double r = ziggurat::kR;
  const double v = r * std::exp(-r * r / 2) +
                   std::sqrt(std::numbers::pi / 2) * std::erfc(r / std::numbers::sqrt2);
  EXPECT_NEAR(t.x[0] * t.f[1], v, 1e-15);  // base strip plus tail
  for (std::size_t i = 1; i < ziggurat::kLayers; ++i) {
    ASSERT_LT(t.x[i + 1], t.x[i]) << "layer " << i;
    EXPECT_NEAR(t.x[i] * (t.f[i + 1] - t.f[i]), v, 1e-12) << "layer " << i;
  }
}

TEST(Normal, ZigguratMomentsShapeAndTail) {
  constexpr std::size_t kDraws = std::size_t{1} << 20;
  ChaCha20Prng rng(std::uint64_t{0x2166});
  std::vector<double> z(kDraws);
  fill_normals(rng, z);
  const double n = static_cast<double>(kDraws);
  double s1 = 0.0, s2 = 0.0, s4 = 0.0;
  std::size_t beyond_r = 0;
  for (const double v : z) {
    s1 += v;
    s2 += v * v;
    s4 += v * v * v * v;
    beyond_r += std::abs(v) > ziggurat::kR ? 1 : 0;
  }
  // Five standard errors each: mean 1/sqrt(n), variance sqrt(2/n),
  // kurtosis sqrt(24/n).
  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  EXPECT_LT(std::abs(mean), 5.0 / std::sqrt(n));
  EXPECT_LT(std::abs(var - 1.0), 5.0 * std::sqrt(2.0 / n));
  EXPECT_LT(std::abs(s4 / n / (var * var) - 3.0), 5.0 * std::sqrt(24.0 / n));

  // The tail sampler's share: P(|Z| > r) = erfc(r / sqrt 2), ~270 draws.
  const double tail_p = std::erfc(ziggurat::kR / std::numbers::sqrt2);
  EXPECT_LT(std::abs(static_cast<double>(beyond_r) - n * tail_p), 5.0 * std::sqrt(n * tail_p));

  // Kolmogorov-Smirnov against Phi: sqrt(n) * D < 1.95 (p = 0.001).
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double cdf = 0.5 * std::erfc(-z[i] / std::numbers::sqrt2);
    d = std::max({d, cdf - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - cdf});
  }
  EXPECT_LT(std::sqrt(n) * d, 1.95);
}

TEST(Normal, FillsSplitAtBlockBoundariesDrawTheSameValues) {
  // A fill works in blocks of 256 from its own start, each block's
  // rejects finished before the next block's words are drawn; so a fill
  // of 556 equals fills of 256 and 300, and the streams stay in step.
  ChaCha20Prng whole(std::uint64_t{0x2167});
  ChaCha20Prng split(std::uint64_t{0x2167});
  std::vector<double> a(556), b(556);
  fill_normals(whole, a);
  fill_normals(split, std::span<double>(b).first(256));
  fill_normals(split, std::span<double>(b).subspan(256));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i])) << i;
  }
  EXPECT_EQ(whole.next_u64(), split.next_u64());
}

}  // namespace
}  // namespace fd
