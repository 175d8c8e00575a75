#pragma once
// Discrete Gaussian samplers.
//
// Two samplers live here:
//  - KeygenGaussian: samples the small keygen polynomials f, g with
//    deviation sigma_fg via an inverse-CDT built at construction.
//  - SamplerZ: FALCON's signing sampler (spec Alg. 12-14): an RCDT base
//    half-Gaussian at sigma_max = 1.8205 combined with a BerExp rejection
//    step, giving a Gaussian with per-call center mu and deviation
//    sigma' in [sigma_min, sigma_max-scaled range]. All floating-point
//    work goes through the instrumented Fpr type, just as in the
//    reference implementation.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fpr/fpr.h"

namespace fd::falcon {

class KeygenGaussian {
 public:
  explicit KeygenGaussian(double sigma);

  [[nodiscard]] std::int32_t sample(RandomSource& rng) const;
  // Fills a polynomial of n coefficients.
  void sample_poly(RandomSource& rng, std::vector<std::int32_t>& out) const;

 private:
  std::vector<std::uint64_t> cdt_;  // cumulative, 63-bit scale
  std::int32_t tail_ = 0;           // support is [-tail, +tail]
};

class SamplerZ {
 public:
  SamplerZ(double sigma_min, RandomSource& rng);

  // Sample z ~ D_{Z, mu, sigma_prime}. sigma_prime must lie in
  // [sigma_min, 1.8205...] (the ffLDL leaf range).
  [[nodiscard]] std::int64_t sample(fpr::Fpr mu, fpr::Fpr sigma_prime);

  // Exposed for unit tests.
  [[nodiscard]] int base_sampler();
  [[nodiscard]] bool ber_exp(fpr::Fpr x, fpr::Fpr ccs);

 private:
  // ber_exp with the first byte of its stream already drawn.
  [[nodiscard]] bool ber_exp(fpr::Fpr x, fpr::Fpr ccs, std::uint8_t first);

  fpr::Fpr sigma_min_;
  RandomSource& rng_;
};

namespace detail {

// The base sampler's reverse CDT: entry i is floor(2^72 * P(X > i)) for
// the half-Gaussian X at sigma_max = 1.8205, i in [0, 25]. Exposed for
// the table's pins.
[[nodiscard]] std::span<const unsigned __int128> rcdt_entries();

}  // namespace detail

}  // namespace fd::falcon
