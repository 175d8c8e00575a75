// ChaCha20 block function against the RFC 7539 test vector, plus
// statistical sanity for the RandomSource helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <iterator>
#include <span>
#include <string>
#include <utility>
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
  // 1000 random key / counter / nonce triples per body.
  for (const auto& body : bodies) {
    ChaCha20Prng triples(std::uint64_t{0xB0D1E7});
    for (int t = 0; t < 1000; ++t) {
      for (std::uint32_t& k : key) k = static_cast<std::uint32_t>(triples.next_u64());
      for (std::uint32_t& n : nonce) n = static_cast<std::uint32_t>(triples.next_u64());
      const auto counter = static_cast<std::uint32_t>(triples.next_u64());
      std::uint8_t got[16 * 64];
      body.blocks16(key, counter, nonce, got);
      for (std::uint32_t b = 0; b < 16; ++b) {
        std::uint8_t want[64];
        ChaCha20Prng::block(key, counter + b, nonce, want);
        ASSERT_TRUE(std::equal(want, want + 64, got + 64 * b))
            << body.name << " triple " << t << " block " << b;
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

// --- the ziggurat's fast-pass bodies ---------------------------------------
//
// Every body (portable, then each SIMD body this CPU runs) must draw the
// same words and write the same values, for both outputs: unit normals,
// and float(sigma * z) added to a float window.

// Hands out `words` as little-endian bytes, then a ChaCha20 stream.
class ScriptedSource final : public RandomSource {
 public:
  explicit ScriptedSource(std::vector<std::uint64_t> words)
      : words_(std::move(words)), tail_(std::uint64_t{0x5C41}) {}
  void fill(std::span<std::uint8_t> out) override {
    for (std::uint8_t& b : out) {
      b = pos_ < 8 * words_.size() ? static_cast<std::uint8_t>(words_[pos_ / 8] >> (8 * (pos_ % 8)))
                                   : tail_.next_u8();
      ++pos_;
    }
  }
  [[nodiscard]] std::size_t words_drawn() const { return pos_ / 8; }

 private:
  std::vector<std::uint64_t> words_;
  ChaCha20Prng tail_;
  std::size_t pos_ = 0;
};

// A keystream word for layer `layer`, sign bit `sign` and 53-bit
// abscissa `m`; bits 9 and 10, which no draw reads, are set.
std::uint64_t ziggurat_word(unsigned layer, unsigned sign, std::uint64_t m) {
  return m << 11 | 0x600 | std::uint64_t{sign} << 8 | layer;
}

// An abscissa in the middle of layer i's wedge (between k[i] and 2^53).
std::uint64_t wedge_m(unsigned layer) {
  return (ziggurat::tables().k[layer] + (std::uint64_t{1} << 53)) / 2;
}

// The window the device starts from: amplitudes of either sign, zeros
// of both signs.
std::vector<float> window_base(std::size_t n) {
  std::vector<float> base(n);
  for (std::size_t j = 0; j < n; ++j) {
    base[j] = j % 5 == 0 ? (j % 2 == 0 ? 0.0F : -0.0F) : static_cast<float>(j % 17) * -1.25F;
  }
  return base;
}

constexpr double kNoiseSigma = 12.0;

struct PassResult {
  std::vector<double> normals;
  std::vector<float> window;
  std::size_t words = 0;  // words the normals fill drew
};

// One fill of n values through `body`, both outputs, from `script`.
PassResult run_body(const detail::NormalsBody& body, const std::vector<std::uint64_t>& script,
                    std::size_t n) {
  PassResult r;
  r.normals.resize(n);
  ScriptedSource a(script);
  body.fill(a, r.normals);
  r.words = a.words_drawn();
  r.window = window_base(n);
  ScriptedSource b(script);
  body.add_scaled(b, kNoiseSigma, r.window);
  EXPECT_EQ(b.words_drawn(), r.words) << body.name;
  return r;
}

// Runs every body on `script` and holds it to the portable one bit for
// bit; the window output must also equal base + float(sigma * z) over
// the portable normals. Returns the portable result.
PassResult expect_bodies_agree(const std::vector<std::uint64_t>& script, std::size_t n,
                               const std::string& where) {
  const auto bodies = detail::normals_bodies();
  EXPECT_STREQ(bodies.front().name, "portable");
  const PassResult want = run_body(bodies.front(), script, n);
  const std::vector<float> base = window_base(n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want.window[j]),
              std::bit_cast<std::uint32_t>(base[j] + static_cast<float>(kNoiseSigma * want.normals[j])))
        << where << " value " << j;
  }
  for (const auto& body : bodies.subspan(1)) {
    const PassResult got = run_body(body, script, n);
    EXPECT_EQ(got.words, want.words) << where << " " << body.name;
    for (std::size_t j = 0; j < n; ++j) {
      const bool same = std::bit_cast<std::uint64_t>(got.normals[j]) ==
                            std::bit_cast<std::uint64_t>(want.normals[j]) &&
                        std::bit_cast<std::uint32_t>(got.window[j]) ==
                            std::bit_cast<std::uint32_t>(want.window[j]);
      if (!same) {
        ADD_FAILURE() << where << " " << body.name << " differs at value " << j << ": "
                      << got.normals[j] << " / " << got.window[j] << " vs "
                      << want.normals[j] << " / " << want.window[j];
        break;
      }
    }
  }
  return want;
}

// The fast-path value of word u: sign * m * x[i] / 2^53.
double fast_value(std::uint64_t u) {
  const auto& t = ziggurat::tables();
  const double z = static_cast<double>(u >> 11) * t.w[u & 0xFF];
  return (u & 0x100) != 0 ? -z : z;
}

TEST(Normal, EveryFastPassBodyMatchesPortable) {
  const auto& t = ziggurat::tables();
  const std::uint64_t all_ones = ~std::uint64_t{0};

  // Every layer and sign on both sides of the fast-path edge, 64 layers
  // per one-block fill: m = k[i] - 1 is a hit, m = k[i] a miss (layer 255
  // has k = 0: all misses).
  for (unsigned first = 0; first < ziggurat::kLayers; first += 64) {
    std::vector<std::uint64_t> script;
    std::vector<std::size_t> hits;
    for (unsigned i = first; i < first + 64; ++i) {
      for (unsigned sign = 0; sign < 2; ++sign) {
        if (t.k[i] > 0) {
          hits.push_back(script.size());
          script.push_back(ziggurat_word(i, sign, t.k[i] - 1));
        }
        script.push_back(ziggurat_word(i, sign, t.k[i]));
      }
    }
    const std::string where = "edge, layers from " + std::to_string(first);
    const PassResult r = expect_bodies_agree(script, script.size(), where);
    for (const std::size_t j : hits) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(r.normals[j]),
                std::bit_cast<std::uint64_t>(fast_value(script[j])))
          << where << " hit " << j;
    }
  }

  // The wedge, accepted (height word 0 lies under f) and rejected (height
  // word 2^64 - 1 lies above it; the draw restarts from the next word, here
  // a hit at m = 0).
  {
    const std::uint64_t restart = ziggurat_word(5, 1, 0);
    const std::vector<std::uint64_t> script = {
        ziggurat_word(1, 0, wedge_m(1)),  ziggurat_word(100, 1, wedge_m(100)),
        ziggurat_word(255, 0, wedge_m(255)),
        0,                                 // slot 0: accepted
        all_ones, restart,                 // slot 1: rejected, restarted
        0};                                // slot 2: accepted
    const PassResult r = expect_bodies_agree(script, 3, "wedge");
    EXPECT_EQ(r.words, script.size());
    EXPECT_EQ(r.normals[0], fast_value(script[0]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.normals[1]),
              std::bit_cast<std::uint64_t>(fast_value(restart)));
    EXPECT_EQ(r.normals[2], fast_value(script[2]));
  }

  // The layer-0 tail: one try rejected (a ~ 10, b = 0), one accepted
  // (a = 0), two words each; the draw is then r itself.
  {
    const std::vector<std::uint64_t> script = {ziggurat_word(0, 1, t.k[0]), ziggurat_word(0, 0, t.k[0] + 1),
                                               0,        all_ones,  // draw 0, rejected
                                               all_ones, 0,         // draw 0, accepted
                                               all_ones, 7};        // draw 1, accepted
    const PassResult r = expect_bodies_agree(script, 2, "tail");
    EXPECT_EQ(r.words, script.size());
    EXPECT_EQ(r.normals[0], -ziggurat::kR);
    EXPECT_EQ(r.normals[1], ziggurat::kR);
  }

  // A block where every word misses, finished from the stream after it.
  {
    std::vector<std::uint64_t> script;
    for (unsigned i = 0; i < ziggurat::kLayers; ++i) {
      script.push_back(ziggurat_word(i, i % 2, i == 0 ? t.k[0] : wedge_m(i)));
    }
    const PassResult r = expect_bodies_agree(script, script.size(), "all misses");
    EXPECT_GT(r.words, script.size());
  }
}

TEST(Normal, EveryBodyMatchesPortableAtBlockLengths1To256) {
  // Random words at every block length 1 .. 256 (the SIMD body's masked
  // tail at each length that is not a multiple of 8), and past one block.
  ChaCha20Prng material(std::uint64_t{0x2168});
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 256; ++n) lengths.push_back(n);
  for (const std::size_t n : {257, 263, 300, 512, 517}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    std::vector<std::uint64_t> script(n + 64);
    for (std::uint64_t& w : script) w = material.next_u64();
    (void)expect_bodies_agree(script, n, "length " + std::to_string(n));
  }
}

}  // namespace
}  // namespace fd
