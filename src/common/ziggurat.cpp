#include "common/ziggurat.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fd {

namespace ziggurat {

namespace {

Tables build_tables() {
  Tables t;
  const long double r = kR;
  const auto f = [](long double x) { return std::exp(-x * x / 2.0L); };
  // Common layer area: the base rectangle plus the tail beyond r.
  const long double v =
      r * f(r) + std::sqrt(std::numbers::pi_v<long double> / 2.0L) *
                     std::erfc(r / std::numbers::sqrt2_v<long double>);
  std::array<long double, kLayers + 1> x{};
  x[0] = v / f(r);
  x[1] = r;
  for (std::size_t i = 2; i < kLayers; ++i) {
    x[i] = std::sqrt(-2.0L * std::log(v / x[i - 1] + f(x[i - 1])));
  }
  x[kLayers] = 0.0L;
  for (std::size_t i = 0; i <= kLayers; ++i) {
    t.x[i] = static_cast<double>(x[i]);
    // Layer 0 never takes the wedge test, so f[0] is never read.
    t.f[i] = i == 0 ? 0.0 : static_cast<double>(f(x[i]));
  }
  for (std::size_t i = 0; i < kLayers; ++i) {
    t.w[i] = static_cast<double>(x[i] * 0x1.0p-53L);
    t.k[i] = static_cast<std::uint64_t>(std::floor(x[i + 1] / x[i] * 0x1.0p53L));
  }
  return t;
}

}  // namespace

const Tables& tables() {
  static const Tables t = build_tables();
  return t;
}

}  // namespace ziggurat

namespace {

constexpr std::size_t kBlock = 256;

// Keystream words are little-endian, as RandomSource::next_u64 reads them.
std::uint64_t from_le(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

// Uniforms from one word's top 53 bits: [0, 1) and (0, 1].
double unit(std::uint64_t u) { return static_cast<double>(u >> 11) * 0x1.0p-53; }
double unit_open0(std::uint64_t u) { return (static_cast<double>(u >> 11) + 1.0) * 0x1.0p-53; }

// Finishes a draw whose first word `u` missed the fast path; every
// further word comes from `rng`.
double finish_draw(RandomSource& rng, std::uint64_t u, const ziggurat::Tables& t) {
  for (;;) {
    const unsigned i = static_cast<unsigned>(u & 0xFF);
    const std::uint64_t m = u >> 11;
    double z = static_cast<double>(m) * t.w[i];
    if (m >= t.k[i]) {
      if (i == 0) {
        // Marsaglia's tail: r + a, a ~ Exp(r), kept with probability
        // exp(-a^2 / 2).
        double a = 0.0;
        double b = 0.0;
        do {
          a = -std::log(unit_open0(rng.next_u64())) / ziggurat::kR;
          b = -std::log(unit_open0(rng.next_u64()));
        } while (b + b < a * a);
        z = ziggurat::kR + a;
      } else {
        // Wedge: a uniform height in the layer, kept under f.
        const double y = t.f[i] + unit(rng.next_u64()) * (t.f[i + 1] - t.f[i]);
        if (!(y < std::exp(-0.5 * z * z))) {
          u = rng.next_u64();
          continue;
        }
      }
    }
    return (u & 0x100) != 0 ? -z : z;
  }
}

// The two outputs of a pass. put(j, z, hit) delivers draw j; a miss
// (hit false) is delivered again, with hit true, once finish_draw has
// its value, so an output may store or skip it. put8 delivers draws
// j .. j+7, `valid` masking the lanes inside the block.
//
// Unit normals as drawn.
struct NormalsOut {
  double* dst;
  void put(std::size_t j, double z, bool /*hit*/) const { dst[j] = z; }
#if defined(__x86_64__) || defined(__i386__)
  [[gnu::always_inline]] __attribute__((target("avx512f,avx512dq,avx512vl"))) void put8(
      std::size_t j, __m512d z, __mmask8 /*hit*/, __mmask8 valid) const {
    _mm512_mask_storeu_pd(dst + j, valid, z);
  }
#endif
};

// A device window: float(sigma * z) added to the float already there.
// A miss keeps its float until its draw is finished.
struct ScaledOut {
  float* dst;
  double sigma;
  void put(std::size_t j, double z, bool hit) const {
    const float v = dst[j] + static_cast<float>(sigma * z);
    dst[j] = hit ? v : dst[j];
  }
#if defined(__x86_64__) || defined(__i386__)
  [[gnu::always_inline]] __attribute__((target("avx512f,avx512dq,avx512vl"))) void put8(
      std::size_t j, __m512d z, __mmask8 hit, __mmask8 valid) const {
    const __m256 base = _mm256_maskz_loadu_ps(valid, dst + j);
    const __m256 noise = _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_set1_pd(sigma), z));
    _mm256_mask_storeu_ps(dst + j, hit, _mm256_add_ps(base, noise));
  }
#endif
};

// The fast path for words[0 .. len): every hit put, every miss's index
// appended to `rejects` in order; returns the number of misses.
//
// Portable: no branch on the data, the sign bit moved into place.
template <class Out>
std::size_t fast_pass_portable(const std::uint64_t* words, std::size_t len, Out out,
                               std::uint32_t* rejects) {
  const ziggurat::Tables& t = ziggurat::tables();
  std::size_t misses = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint64_t u = from_le(words[j]);
    const unsigned i = static_cast<unsigned>(u & 0xFF);
    const std::uint64_t m = u >> 11;
    const double z = static_cast<double>(static_cast<std::int64_t>(m)) * t.w[i];
    const bool miss = m >= t.k[i];
    out.put(j, std::bit_cast<double>(std::bit_cast<std::uint64_t>(z) | ((u & 0x100) << 55)),
            !miss);
    rejects[misses] = static_cast<std::uint32_t>(j);
    misses += miss ? 1 : 0;
  }
  return misses;
}

#if defined(__x86_64__) || defined(__i386__)
// GCC 12's avx512fintrin.h self-initializes the pass-through operand of
// its unmasked intrinsics, which -Wuninitialized flags at every use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

// AVX-512: eight words per step, w[i] and k[i] gathered, the misses'
// indices compressed into the list; the block's tail is a masked step.
template <class Out>
__attribute__((target("avx512f,avx512dq,avx512vl"))) std::size_t fast_pass_avx512(
    const std::uint64_t* words, std::size_t len, Out out, std::uint32_t* rejects) {
  const ziggurat::Tables& t = ziggurat::tables();
  const __m512i layer_mask = _mm512_set1_epi64(0xFF);
  const __m512i sign_mask = _mm512_set1_epi64(0x100);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t misses = 0;
  for (std::size_t j = 0; j < len; j += 8) {
    const __mmask8 valid =
        len - j >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1U << (len - j)) - 1);
    const __m512i u = _mm512_maskz_loadu_epi64(valid, words + j);
    const __m512i i = _mm512_and_si512(u, layer_mask);
    const __m512i m = _mm512_srli_epi64(u, 11);
    const __m512d w = _mm512_i64gather_pd(i, t.w.data(), 8);
    const __m512i k = _mm512_i64gather_epi64(i, t.k.data(), 8);
    const __m512i z = _mm512_or_si512(
        _mm512_castpd_si512(_mm512_mul_pd(_mm512_cvtepi64_pd(m), w)),
        _mm512_slli_epi64(_mm512_and_si512(u, sign_mask), 55));
    const __mmask8 miss = _mm512_mask_cmpge_epu64_mask(valid, m, k);
    out.put8(j, _mm512_castsi512_pd(z), static_cast<__mmask8>(valid & ~miss), valid);
    _mm256_mask_compressstoreu_epi32(
        rejects + misses, miss,
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(j)), lane));
    misses += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(miss)));
  }
  return misses;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

// A whole fill: blocks of up to 256 words from the fill's own start, each
// block's rejects finished, in index order, before the next block's words
// are drawn.
template <class Out, std::size_t (*kFastPass)(const std::uint64_t*, std::size_t, Out,
                                               std::uint32_t*)>
void normals_pass(RandomSource& rng, std::size_t n, Out out) {
  const ziggurat::Tables& t = ziggurat::tables();
  std::uint64_t words[kBlock];
  std::uint32_t rejects[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    rng.fill({reinterpret_cast<std::uint8_t*>(words), 8 * len});
    Out block = out;
    block.dst += base;
    const std::size_t misses = kFastPass(words, len, block, rejects);
    for (std::size_t r = 0; r < misses; ++r) {
      block.put(rejects[r], finish_draw(rng, from_le(words[rejects[r]]), t), true);
    }
  }
}

template <std::size_t (*kNormals)(const std::uint64_t*, std::size_t, NormalsOut, std::uint32_t*),
          std::size_t (*kScaled)(const std::uint64_t*, std::size_t, ScaledOut, std::uint32_t*)>
constexpr detail::NormalsBody make_body(const char* name) {
  return {name,
          [](RandomSource& rng, std::span<double> out) {
            normals_pass<NormalsOut, kNormals>(rng, out.size(), NormalsOut{out.data()});
          },
          [](RandomSource& rng, double sigma, std::span<float> out) {
            normals_pass<ScaledOut, kScaled>(rng, out.size(), ScaledOut{out.data(), sigma});
          }};
}

std::vector<detail::NormalsBody> supported_normals_bodies() {
  std::vector<detail::NormalsBody> bodies = {
      make_body<fast_pass_portable<NormalsOut>, fast_pass_portable<ScaledOut>>("portable")};
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    bodies.push_back(
        make_body<fast_pass_avx512<NormalsOut>, fast_pass_avx512<ScaledOut>>("avx512"));
  }
#endif
  return bodies;
}

}  // namespace

std::span<const detail::NormalsBody> detail::normals_bodies() {
  static const std::vector<NormalsBody> bodies = supported_normals_bodies();
  return bodies;
}

void fill_normals(RandomSource& rng, std::span<double> out) {
  static const auto fill = detail::normals_bodies().back().fill;
  fill(rng, out);
}

void add_scaled_normals(RandomSource& rng, double sigma, std::span<float> out) {
  static const auto add_scaled = detail::normals_bodies().back().add_scaled;
  add_scaled(rng, sigma, out);
}

}  // namespace fd
