#pragma once
// FALCON key generation (spec Alg. 5).
//
// Samples small Gaussian f, g; rejects pairs whose Gram-Schmidt norm
// would degrade signature security or whose f is not invertible mod q;
// solves the NTRU equation for F, G; and precomputes the FFT basis and
// the ffLDL* tree that signing consumes.

#include "common/rng.h"
#include "falcon/keys.h"

namespace fd::falcon {

// Generates a key pair for the given parameter set. Retries internally
// until all keygen checks pass (a handful of iterations in expectation).
[[nodiscard]] KeyPair keygen(unsigned logn, RandomSource& rng);

// Rebuilds the FFT basis and sampling tree from (f, g, F, G) -- used by
// key decoding and by the attacker after recovering the polynomials.
// Returns false if the tree's leaf sigmas fall outside the sampler's
// admissible range (never happens for honestly generated keys).
[[nodiscard]] bool expand_secret_key(SecretKey& sk);

// True iff f*G - g*F == q in Z[x]/(x^n + 1), computed exactly in int64.
// Inputs that could leave int64 are rejected without computing: a
// coefficient of F or G of magnitude 2^30 or more, or an f or g whose
// coefficient magnitudes sum to 2^31 or more.
[[nodiscard]] bool ntru_equation_holds(std::span<const std::int32_t> f,
                                       std::span<const std::int32_t> g,
                                       std::span<const std::int32_t> big_f,
                                       std::span<const std::int32_t> big_g);

// Computes h = g * f^(-1) mod q; returns false when f is not invertible.
[[nodiscard]] bool compute_public_key(PublicKey& pk, std::span<const std::int32_t> f,
                                      std::span<const std::int32_t> g, unsigned logn);

}  // namespace fd::falcon
