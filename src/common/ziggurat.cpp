#include "common/ziggurat.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

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

}  // namespace

void fill_normals(RandomSource& rng, std::span<double> out) {
  const ziggurat::Tables& t = ziggurat::tables();
  std::uint64_t words[kBlock];
  std::uint32_t rejects[kBlock];
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t len = std::min(kBlock, out.size() - base);
    rng.fill({reinterpret_cast<std::uint8_t*>(words), 8 * len});
    double* dst = out.data() + base;
    // The fast path for every word: no branch on the data, the sign bit
    // moved into place, and each miss appended to the reject list.
    std::size_t misses = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint64_t u = from_le(words[j]);
      const unsigned i = static_cast<unsigned>(u & 0xFF);
      const std::uint64_t m = u >> 11;
      const double z = static_cast<double>(static_cast<std::int64_t>(m)) * t.w[i];
      dst[j] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(z) | ((u & 0x100) << 55));
      rejects[misses] = static_cast<std::uint32_t>(j);
      misses += m >= t.k[i] ? 1 : 0;
    }
    for (std::size_t r = 0; r < misses; ++r) {
      dst[rejects[r]] = finish_draw(rng, from_le(words[rejects[r]]), t);
    }
  }
}

}  // namespace fd
