#pragma once
// FALCON signing (spec Alg. 2) and verification (spec Alg. 16).
//
// Signing hashes (salt || message) to a point c, computes the target
//     t = ( -1/q * FFT(c) (.) FFT(F),  1/q * FFT(c) (.) FFT(f) ),
// Gaussian-samples a nearby lattice vector with ffSampling, and outputs
// the compressed short vector s2. The coefficient-wise product
// FFT(c) (.) FFT(f) is the operation attacked by the paper; the signing
// code brackets each complex-slot multiplication with trigger leakage
// markers so a capture rig can window traces per coefficient, playing
// the role of the oscilloscope trigger in the physical setup.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "falcon/keys.h"

namespace fd::falcon {

struct Signature {
  std::uint8_t salt[kSaltBytes] = {};
  std::vector<std::int16_t> s2;  // short vector, coefficient order
};

// HashToPoint: SHAKE256(salt || message) squeezed into n values mod q by
// rejection on 16-bit big-endian words (spec Alg. 3).
[[nodiscard]] std::vector<std::uint32_t> hash_to_point(std::span<const std::uint8_t> salt,
                                                       std::string_view message, unsigned logn);

// Signs a message; retries internally until the sampled vector is short
// enough. The salt is drawn from rng, so repeated calls on the same
// message produce distinct signatures (and distinct hashed points c --
// which is what gives the side-channel adversary fresh known inputs).
[[nodiscard]] Signature sign(const SecretKey& sk, std::string_view message, RandomSource& rng);

// The signer a capture rig drives: Alg. 2 up to the target t -- every
// trigger window of both basis rows, of the plain targets or (masked)
// sign_masked's two-share ones -- and no further. It draws the salt and
// the masks as sign()/sign_masked() do, so on the same stream its salt
// and windows equal theirs whenever their first salt passes the norm
// check. Returns that salt with an empty s2; nothing verifies it.
[[nodiscard]] Signature sign_capture(const SecretKey& sk, std::string_view message,
                                     RandomSource& rng, bool masked);

// Verifies: recomputes c, derives s1 = c - s2*h mod q (centered), and
// accepts iff ||(s1, s2)||^2 <= floor(beta^2).
[[nodiscard]] bool verify(const PublicKey& pk, std::string_view message, const Signature& sig);

}  // namespace fd::falcon
