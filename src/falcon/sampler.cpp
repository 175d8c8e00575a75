#include "falcon/sampler.h"

#include <array>
#include <cassert>
#include <cmath>

namespace fd::falcon {

using fpr::Fpr;
using fpr::fpr_add;
using fpr::fpr_div;
using fpr::fpr_expm_p63;
using fpr::fpr_floor;
using fpr::fpr_half;
using fpr::fpr_lt;
using fpr::fpr_mul;
using fpr::fpr_neg;
using fpr::fpr_of;
using fpr::fpr_sqr;
using fpr::fpr_sub;

KeygenGaussian::KeygenGaussian(double sigma) {
  assert(sigma > 0.0);
  tail_ = static_cast<std::int32_t>(std::ceil(10.0 * sigma));
  // P(k) proportional to exp(-k^2 / (2 sigma^2)), k in [-tail, tail].
  std::vector<long double> weights;
  weights.reserve(2 * tail_ + 1);
  long double total = 0.0L;
  for (std::int32_t k = -tail_; k <= tail_; ++k) {
    const long double w =
        std::exp(-static_cast<long double>(k) * k / (2.0L * sigma * sigma));
    weights.push_back(w);
    total += w;
  }
  cdt_.resize(weights.size());
  long double acc = 0.0L;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    const long double scaled = acc / total * 0x1.0p63L;
    cdt_[i] = (i + 1 == weights.size())
                  ? (std::uint64_t{1} << 63)
                  : static_cast<std::uint64_t>(scaled);
  }
}

std::int32_t KeygenGaussian::sample(RandomSource& rng) const {
  const std::uint64_t u = rng.next_u64() >> 1;  // uniform in [0, 2^63)
  // First index with cdt_[i] > u (binary search).
  std::size_t lo = 0;
  std::size_t hi = cdt_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdt_[mid] > u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<std::int32_t>(lo) - tail_;
}

void KeygenGaussian::sample_poly(RandomSource& rng, std::vector<std::int32_t>& out) const {
  for (auto& c : out) c = sample(rng);
}

namespace {

// Reverse CDT for the half-Gaussian base sampler at sigma_max = 1.8205,
// 72-bit precision, computed once. RCDT[i] = floor(2^72 * P(X > i)) for X
// half-Gaussian on Z>=0, held as one 128-bit integer per entry; entries
// past the table are 0, which no draw lies below.
struct Rcdt {
  static constexpr int kMaxZ = 25;
  std::array<unsigned __int128, kMaxZ + 1> entries{};

  Rcdt() {
    constexpr long double kSigmaMax = 1.8205L;
    // tail[z] = sum_{z' >= z} rho(z'), rho(z) = exp(-z^2 / (2 sigma^2)),
    // summed from the smallest term up; rho(40) < 2^-400, so the sum
    // stops there. Entry i is 2^72 * tail[i + 1] / tail[0]. (One minus a
    // running CDF cancels: in long double it never reaches zero, which
    // leaves ~303 units in every small entry.)
    constexpr int kSumZ = 40;
    std::array<long double, kSumZ + 2> tail{};
    for (int z = kSumZ; z >= 0; --z) {
      tail[z] = tail[z + 1] + std::exp(-static_cast<long double>(z) * z /
                                       (2.0L * kSigmaMax * kSigmaMax));
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      // Split 2^72 * P(X > i) into hi byte and low 64 bits.
      const long double scaled = tail[i + 1] / tail[0] * 0x1.0p72L;
      const long double hi_part = std::floor(scaled / 0x1.0p64L);
      const std::uint8_t hi = static_cast<std::uint8_t>(hi_part);
      const std::uint64_t lo = static_cast<std::uint64_t>(scaled - hi_part * 0x1.0p64L);
      entries[i] = (static_cast<unsigned __int128>(hi) << 64) | lo;
    }
  }
};

const Rcdt& rcdt() {
  static const Rcdt table;
  return table;
}

// The base sample for 72 random bits (hi: 8, lo: 64): the number of
// RCDT entries above them, counted without a branch.
int rcdt_z0(std::uint64_t lo, std::uint8_t hi) {
  const unsigned __int128 u = (static_cast<unsigned __int128>(hi) << 64) | lo;
  int z0 = 0;
  for (const unsigned __int128 e : rcdt().entries) z0 += static_cast<int>(u < e);
  return z0;
}

}  // namespace

std::span<const unsigned __int128> detail::rcdt_entries() { return rcdt().entries; }

SamplerZ::SamplerZ(double sigma_min, RandomSource& rng)
    : sigma_min_(Fpr::from_double(sigma_min)), rng_(rng) {}

int SamplerZ::base_sampler() {
  // 72 random bits: compare against each RCDT entry.
  const std::uint64_t lo = rng_.next_u64();
  const std::uint8_t hi = rng_.next_u8();
  return rcdt_z0(lo, hi);
}

bool SamplerZ::ber_exp(Fpr x, Fpr ccs) { return ber_exp(x, ccs, rng_.next_u8()); }

bool SamplerZ::ber_exp(Fpr x, Fpr ccs, std::uint8_t first) {
  // Split x = s*ln2 + r with r in [0, ln2).
  std::int64_t s = fpr_floor(fpr_mul(x, fpr::kInvLn2));
  const Fpr r = fpr_sub(x, fpr_mul(fpr_of(s), fpr::kLn2));
  if (s > 63) s = 63;
  // z ~ 2^64 * ccs * exp(-r) / 2^s, sampled against a random 64-bit
  // stream one byte at a time (most significant first); `first` is the
  // stream's first byte, the rest are drawn only while they tie.
  std::uint64_t z = ((fpr_expm_p63(r, ccs) << 1) - 1) >> s;
  int i = 56;
  int w = static_cast<int>(first) - static_cast<int>((z >> i) & 0xFF);
  while (w == 0 && i > 0) {
    i -= 8;
    w = static_cast<int>(rng_.next_u8()) - static_cast<int>((z >> i) & 0xFF);
  }
  return w < 0;
}

std::int64_t SamplerZ::sample(Fpr mu, Fpr sigma_prime) {
  const std::int64_t s = fpr_floor(mu);
  const Fpr r = fpr_sub(mu, fpr_of(s));  // r in [0, 1)
  // dss = 1 / (2 sigma'^2); ccs = sigma_min / sigma'.
  const Fpr dss = fpr_half(fpr::fpr_inv(fpr_sqr(sigma_prime)));
  const Fpr ccs = fpr_div(sigma_min_, sigma_prime);
  constexpr double kInv2SigmaMaxSq = 1.0 / (2.0 * 1.8205 * 1.8205);
  const Fpr inv2smax = Fpr::from_double(kInv2SigmaMaxSq);

  for (;;) {
    // One fill per iteration for the bytes base_sampler(), the sign draw
    // and BerExp would take in turn: base u64 (little-endian), base u8,
    // sign, BerExp's first byte.
    std::uint8_t draw[11];
    rng_.fill(draw);
    std::uint64_t lo = 0;
    for (int i = 7; i >= 0; --i) lo = (lo << 8) | draw[i];
    const int z0 = rcdt_z0(lo, draw[8]);
    const int b = draw[9] & 1;
    const std::int64_t z = b + (2 * b - 1) * z0;
    // x = (z - r)^2 / (2 sigma'^2) - z0^2 / (2 sigma_max^2)  (>= 0).
    Fpr x = fpr_sub(fpr_of(z), r);
    x = fpr_mul(fpr_sqr(x), dss);
    x = fpr_sub(x, fpr_mul(fpr_of(static_cast<std::int64_t>(z0) * z0), inv2smax));
    if (ber_exp(x, ccs, draw[10])) {
      return s + z;
    }
  }
}

}  // namespace fd::falcon
