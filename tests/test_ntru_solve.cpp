// NTRUSolve: ring-helper identities and the NTRU equation itself across
// sizes, with Gaussian-sampled inputs like real keygen; the product
// kernel against a schoolbook BigInt oracle; and keygen's keys pinned
// bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "falcon/keygen.h"
#include "falcon/ntru_solve.h"
#include "falcon/params.h"
#include "falcon/sampler.h"

namespace fd::falcon {
namespace {

ZPoly sample_small(RandomSource& rng, std::size_t n, double sigma) {
  KeygenGaussian g(sigma);
  ZPoly f(n);
  for (auto& c : f) c = BigInt(g.sample(rng));
  return f;
}

// The schoolbook negacyclic product over BigInt, term by term: the
// oracle for zpoly_mul's bound-sized kernels.
ZPoly schoolbook_mul(const ZPoly& a, const ZPoly& b) {
  const std::size_t n = a.size();
  ZPoly r(n, BigInt(0));
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].is_zero()) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (b[j].is_zero()) continue;
      const BigInt p = a[i] * b[j];
      const std::size_t k = i + j;
      if (k < n) {
        r[k] += p;
      } else {
        r[k - n] -= p;
      }
    }
  }
  return r;
}

// A uniform magnitude of exactly `bits` bits (top bit set), random sign.
BigInt random_coeff(RandomSource& rng, std::size_t bits) {
  if (bits == 0) return BigInt(0);
  BigInt r(1);
  for (std::size_t i = 1; i < bits; i += 32) {
    const std::size_t take = std::min<std::size_t>(32, bits - i);
    r <<= take;
    r += BigInt(static_cast<std::int64_t>(rng.next_u64() & ((std::uint64_t{1} << take) - 1)));
  }
  return (rng.next_u8() & 1) != 0 ? -r : r;
}

// Coefficients of `bits` bits with random signs; one in eight is zero.
ZPoly random_poly(RandomSource& rng, std::size_t n, std::size_t bits) {
  ZPoly p(n);
  for (auto& c : p) c = (rng.next_u8() & 7) == 0 ? BigInt(0) : random_coeff(rng, bits);
  return p;
}

bool is_q(const ZPoly& p, std::uint32_t q) {
  if (p[0] != BigInt(static_cast<std::int64_t>(q))) return false;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (!p[i].is_zero()) return false;
  }
  return true;
}

TEST(ZPoly, MulIsNegacyclic) {
  // (x^(n-1)) * x = -1 in Z[x]/(x^n + 1).
  ZPoly a(4, BigInt(0)), b(4, BigInt(0));
  a[3] = BigInt(1);
  b[1] = BigInt(1);
  const ZPoly r = zpoly_mul(a, b);
  EXPECT_EQ(r[0], BigInt(-1));
  EXPECT_TRUE(r[1].is_zero());
  EXPECT_TRUE(r[2].is_zero());
  EXPECT_TRUE(r[3].is_zero());
}

TEST(ZPoly, MulMatchesSchoolbookOracle) {
  // Coefficient sizes on both sides of the int128 bound
  // bitlen(a) + bitlen(b) + logn <= 127 and of the int64 operand range.
  ChaCha20Prng rng(0x7010);
  for (const std::size_t n : {1U, 2U, 3U, 4U, 5U, 8U, 16U, 32U, 64U, 128U, 256U, 512U}) {
    unsigned logn = 0;
    while ((std::size_t{1} << logn) < n) ++logn;
    std::vector<std::pair<std::size_t, std::size_t>> sizes = {{64, 64}, {65, 61}, {1000, 8}};
    if (n <= 64) {  // the full grid; the schoolbook oracle is slow above
      sizes.insert(sizes.end(), {{1, 1}, {8, 8}, {61, 61}, {63, 63}, {65, 65}, {61, 65}, {64, 1},
                                 {8, 1000}, {1000, 1000}});
    }
    for (const std::size_t total : {126U, 127U, 128U}) {
      sizes.emplace_back(63, total - 63 - logn);
      sizes.emplace_back(total - 64 - logn, 64);
      sizes.emplace_back((total - logn) / 2, total - logn - (total - logn) / 2);
    }
    for (const auto& [ba, bb] : sizes) {
      const ZPoly a = random_poly(rng, n, ba);
      const ZPoly b = random_poly(rng, n, bb);
      EXPECT_EQ(zpoly_mul(a, b), schoolbook_mul(a, b)) << "n=" << n << " bits " << ba << "x" << bb;
    }

    // Extremes: every product coefficient at its largest magnitude.
    const BigInt max63(INT64_MAX);
    const BigInt min63(INT64_MIN);
    const ZPoly zero(n, BigInt(0));
    const ZPoly pmax(n, max63), nmax(n, -max63), pmin(n, min63);
    ZPoly mixed(n);
    for (std::size_t i = 0; i < n; ++i) mixed[i] = (i & 1) != 0 ? min63 : max63;
    const std::size_t fit = 127 - logn - 63;  // the largest fast-path partner
    const ZPoly top(n, (BigInt(1) << fit) - BigInt(1));
    const ZPoly over(n, (BigInt(1) << (fit + 1)) - BigInt(1));
    if (n <= 64) {
      for (const ZPoly* a : {&zero, &pmax, &nmax, &pmin, &std::as_const(mixed)}) {
        for (const ZPoly* b : {&zero, &pmax, &pmin, &std::as_const(mixed), &top, &over}) {
          EXPECT_EQ(zpoly_mul(*a, *b), schoolbook_mul(*a, *b)) << "n=" << n;
          EXPECT_EQ(zpoly_mul(*b, *a), schoolbook_mul(*b, *a)) << "n=" << n;
        }
      }
    } else {  // the bound's edge only
      for (const auto& [a, b] : {std::pair{&pmax, &top}, std::pair{&pmax, &over},
                                 std::pair{&nmax, &over}, std::pair{&pmin, &pmin}}) {
        EXPECT_EQ(zpoly_mul(*a, *b), schoolbook_mul(*a, *b)) << "n=" << n;
      }
    }
  }
}

TEST(ZPoly, MulBorrowsAcrossEqualLimbs) {
  // r_0 = a_0 b_0 - a_1 b_1 whose two sums share their middle 64-bit
  // limb: the borrow out of the low limb must cross it.
  const BigInt two64 = BigInt(1) << 64;
  const ZPoly a = {(BigInt(1) << 128) + BigInt(5) * two64, BigInt(5) * two64 + BigInt(1)};
  const ZPoly b = {BigInt(1), BigInt(1)};
  const ZPoly r = zpoly_mul(a, b);
  EXPECT_EQ(r[0], (BigInt(1) << 128) - BigInt(1));
  EXPECT_EQ(r, schoolbook_mul(a, b));
}

TEST(ZPoly, MulRejectsSizeMismatch) {
  const ZPoly a(4, BigInt(1)), b(2, BigInt(1));
  EXPECT_THROW((void)zpoly_mul(a, b), std::invalid_argument);
}

TEST(ZPoly, FieldNormRejectsOddLength) {
  EXPECT_THROW((void)zpoly_field_norm(ZPoly(3, BigInt(1))), std::invalid_argument);
}

TEST(ZPoly, FieldNormRejectsShortLength) {
  EXPECT_THROW((void)zpoly_field_norm(ZPoly(1, BigInt(1))), std::invalid_argument);
  EXPECT_THROW((void)zpoly_field_norm(ZPoly()), std::invalid_argument);
}

TEST(ZPoly, GaloisConjugateIsInvolution) {
  ChaCha20Prng rng(0x7001);
  const ZPoly f = sample_small(rng, 16, 20.0);
  EXPECT_EQ(zpoly_galois_conjugate(zpoly_galois_conjugate(f)), f);
}

TEST(ZPoly, FieldNormIdentity) {
  // N(f)(x^2) == f(x) * f(-x) for every f.
  ChaCha20Prng rng(0x7002);
  for (const std::size_t n : {2U, 4U, 8U, 16U, 32U}) {
    const ZPoly f = sample_small(rng, n, 15.0);
    const ZPoly lhs = zpoly_lift(zpoly_field_norm(f));
    const ZPoly rhs = zpoly_mul(f, zpoly_galois_conjugate(f));
    EXPECT_EQ(lhs, rhs) << "n=" << n;
  }
}

TEST(ZPoly, FieldNormMultiplicative) {
  // N(f*g) == N(f) * N(g).
  ChaCha20Prng rng(0x7003);
  const ZPoly f = sample_small(rng, 8, 10.0);
  const ZPoly g = sample_small(rng, 8, 10.0);
  EXPECT_EQ(zpoly_field_norm(zpoly_mul(f, g)),
            zpoly_mul(zpoly_field_norm(f), zpoly_field_norm(g)));
}

TEST(ZPoly, ReduceKeepsLatticeCoset) {
  // Babai reduction changes (F, G) by multiples of (f, g) only, so
  // f*G - g*F is invariant.
  ChaCha20Prng rng(0x7004);
  const std::size_t n = 16;
  const ZPoly f = sample_small(rng, n, 5.0);
  const ZPoly g = sample_small(rng, n, 5.0);
  // Start from artificially bloated F, G: (F0 + t*f, G0 + t*g).
  ZPoly big_f = sample_small(rng, n, 1000.0);
  ZPoly big_g = sample_small(rng, n, 1000.0);
  const ZPoly before = zpoly_sub(zpoly_mul(f, big_g), zpoly_mul(g, big_f));
  const std::size_t bits_before = zpoly_max_bitlen(big_f);
  zpoly_reduce(big_f, big_g, f, g);
  const ZPoly after = zpoly_sub(zpoly_mul(f, big_g), zpoly_mul(g, big_f));
  EXPECT_EQ(before, after);
  EXPECT_LE(zpoly_max_bitlen(big_f), bits_before);
}

class NtruSolveParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(NtruSolveParam, SolvesNtruEquation) {
  const unsigned logn = GetParam();
  const std::size_t n = std::size_t{1} << logn;
  const double sigma = Params::get(std::max(2U, logn)).sigma_fg;
  ChaCha20Prng rng(0x7100 + logn);
  int solved = 0;
  for (int attempt = 0; attempt < 8 && solved < 2; ++attempt) {
    const ZPoly f = sample_small(rng, n, sigma);
    const ZPoly g = sample_small(rng, n, sigma);
    auto sol = ntru_solve(f, g, kQ);
    if (!sol) continue;  // non-coprime resultants: legitimate retry
    ++solved;
    const ZPoly check = zpoly_sub(zpoly_mul(f, sol->big_g), zpoly_mul(g, sol->big_f));
    EXPECT_TRUE(is_q(check, kQ)) << "logn=" << logn;
    // Size-reduced F, G stay comfortably below 2^20 for these sizes.
    EXPECT_LT(zpoly_max_bitlen(sol->big_f), 24U);
    EXPECT_LT(zpoly_max_bitlen(sol->big_g), 24U);
  }
  EXPECT_GE(solved, 1) << "no coprime (f,g) pair in 8 attempts at logn=" << logn;
}

INSTANTIATE_TEST_SUITE_P(Sizes, NtruSolveParam, ::testing::Values(0U, 1U, 2U, 3U, 4U, 5U, 6U));

TEST(NtruSolve, Degree1Bezout) {
  // n=1: plain Bezout. gcd(3, 5) = 1 -> exact solution.
  const ZPoly f = {BigInt(3)};
  const ZPoly g = {BigInt(5)};
  auto sol = ntru_solve(f, g, kQ);
  ASSERT_TRUE(sol.has_value());
  const BigInt check = f[0] * sol->big_g[0] - g[0] * sol->big_f[0];
  EXPECT_EQ(check, BigInt(12289));
}

TEST(NtruSolve, RejectsSizeMismatch) {
  const ZPoly f(4, BigInt(1)), g(8, BigInt(1));
  EXPECT_THROW((void)ntru_solve(f, g, kQ), std::invalid_argument);
}

TEST(NtruSolve, NonCoprimeFails) {
  // f and g both even: gcd of resultants is even, never 1.
  const ZPoly f = {BigInt(2)};
  const ZPoly g = {BigInt(4)};
  EXPECT_FALSE(ntru_solve(f, g, kQ).has_value());
}

// FNV-1a 64 over the little-endian bytes of f, g, F, G and h.
std::uint64_t key_digest(const KeyPair& kp) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto fold = [&h](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const auto* p : {&kp.sk.f, &kp.sk.g, &kp.sk.big_f, &kp.sk.big_g}) {
    for (const std::int32_t c : *p) fold(static_cast<std::uint32_t>(c));
  }
  for (const std::uint32_t c : kp.pk.h) fold(c);
  return h;
}

TEST(Keygen, KeysPinnedToParent) {
  // Digests computed with the schoolbook BigInt NTRUSolve: the victim
  // key of every ring size, then the keys of the GoldenArchive.* tests.
  const std::uint64_t victim[] = {0xC8AF7D48E4B5FBB5ULL, 0x5FE72C39F1305A1BULL,
                                  0x79BD0227D2D4F8A6ULL, 0x95CD607D47257E89ULL,
                                  0x8D56734C1D930177ULL, 0x8C1AA466BAEAA3E1ULL,
                                  0x65BB85F1C000CBF7ULL, 0x99B79A23C490C79EULL,
                                  0xBBBB3F954862563EULL};
  for (unsigned logn = 2; logn <= 10; ++logn) {
    ChaCha20Prng rng("victim key seed");
    EXPECT_EQ(key_digest(keygen(logn, rng)), victim[logn - 2]) << "logn=" << logn;
  }
  const struct {
    std::uint64_t seed;
    unsigned logn;
    std::uint64_t digest;
  } golden[] = {{0x601D4, 4, 0xDCABF0D95FA44B39ULL},
                {0x601D9, 9, 0x1CCCA5DC733E0F81ULL},
                {0x601DA, 4, 0x396EF61E8E73FC17ULL},
                {0x601DF, 4, 0xF4C70719E72348BBULL}};
  for (const auto& k : golden) {
    ChaCha20Prng rng(k.seed);
    EXPECT_EQ(key_digest(keygen(k.logn, rng)), k.digest) << "seed=" << k.seed;
  }
}

TEST(Keygen, NtruCheckRejectsOffByOne) {
  ChaCha20Prng rng("victim key seed");
  const KeyPair kp = keygen(9, rng);
  const SecretKey& sk = kp.sk;
  EXPECT_TRUE(ntru_equation_holds(sk.f, sk.g, sk.big_f, sk.big_g));
  for (const std::size_t i : {0U, 1U, 255U, 511U}) {
    for (const int d : {-1, 1}) {
      auto big_f = sk.big_f;
      big_f[i] += d;
      EXPECT_FALSE(ntru_equation_holds(sk.f, sk.g, big_f, sk.big_g)) << "F[" << i << "]";
      auto big_g = sk.big_g;
      big_g[i] += d;
      EXPECT_FALSE(ntru_equation_holds(sk.f, sk.g, sk.big_f, big_g)) << "G[" << i << "]";
    }
  }
  // Out of the int64-exact range: rejected without computing (these sums
  // would overflow int64, which UBSan reports).
  auto big_f = sk.big_f;
  big_f[3] = 1 << 30;
  EXPECT_FALSE(ntru_equation_holds(sk.f, sk.g, big_f, sk.big_g));
  const std::vector<std::int32_t> huge(512, INT32_MAX), neg_huge(512, -INT32_MAX);
  const std::vector<std::int32_t> top(512, (1 << 30) - 1);
  EXPECT_FALSE(ntru_equation_holds(huge, neg_huge, top, top));
  EXPECT_FALSE(ntru_equation_holds(std::span(sk.f).first(256), sk.g, sk.big_f, sk.big_g));
}

}  // namespace
}  // namespace fd::falcon
