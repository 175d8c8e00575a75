#pragma once
// NTRUSolve: given small f, g in Z[x]/(x^n + 1), find F, G with
//     f*G - g*F = q   (mod x^n + 1),
// the NTRU equation at the heart of FALCON key generation (spec Alg. 6).
//
// Classic field-norm recursion over exact big integers:
//   - descend: N(f)(x^2) = f(x) * f(-x) halves the degree (and roughly
//     doubles coefficient sizes) until n == 1, where the equation is a
//     Bezout identity solved by xgcd;
//   - ascend: F = F'(x^2) * g(-x), G = G'(x^2) * f(-x), then size-reduce
//     (F, G) against (f, g) with Babai's round-off, using an FFT
//     approximation of the quotient on the top ~53 bits of each
//     coefficient.
//
// Exact arithmetic end to end; the FFT is only used to *choose* the
// reduction coefficients, so a poor approximation can slow convergence
// but never breaks the invariant f*G - g*F = q (checked by the caller).

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bigint.h"

namespace fd::falcon {

using ZPoly = std::vector<BigInt>;  // coefficients of Z[x]/(x^len + 1)

struct NtruSolution {
  ZPoly big_f;  // F
  ZPoly big_g;  // G
};

// Negacyclic ring helpers (exposed for tests).
// Exact product; sums in __int128 when the operands' bit lengths allow,
// otherwise in 64-bit limbs, never a BigInt per term (DESIGN.md section
// 20). Throws std::invalid_argument when the sizes differ.
[[nodiscard]] ZPoly zpoly_mul(const ZPoly& a, const ZPoly& b);
[[nodiscard]] ZPoly zpoly_add(const ZPoly& a, const ZPoly& b);
[[nodiscard]] ZPoly zpoly_sub(const ZPoly& a, const ZPoly& b);
// f(-x): negate odd coefficients.
[[nodiscard]] ZPoly zpoly_galois_conjugate(const ZPoly& f);
// N(f) of half length: fe^2 - x * fo^2. Throws std::invalid_argument
// unless the length is even and at least 2.
[[nodiscard]] ZPoly zpoly_field_norm(const ZPoly& f);
// F'(x^2): interleave with zeros to double the length.
[[nodiscard]] ZPoly zpoly_lift(const ZPoly& f);
[[nodiscard]] std::size_t zpoly_max_bitlen(const ZPoly& f);

// Babai size-reduction of (F, G) against (f, g); returns number of
// reduction rounds applied. Exposed for tests.
int zpoly_reduce(ZPoly& big_f, ZPoly& big_g, const ZPoly& f, const ZPoly& g);

// Solve f*G - g*F = q. Returns nullopt when the recursion hits a
// non-coprime resultant pair (keygen then resamples f, g). Throws
// std::invalid_argument when f and g differ in size.
[[nodiscard]] std::optional<NtruSolution> ntru_solve(const ZPoly& f, const ZPoly& g,
                                                     std::uint32_t q);

}  // namespace fd::falcon
