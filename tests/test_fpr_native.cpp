// The native fast path of fpr.h (DESIGN.md section 19) against the
// emulation it replaces: every public op must return the bits of its
// detail::*_emu body, for seeded random operands across the whole
// exponent range and for the edge operands where the guard decides. And
// the leaking ops must still emit every event wherever a data route is
// armed.
//
// The Fpr.*MatchesHardware tests run with no sink installed, so they
// compare the host FPU with itself; these keep the emulation honest.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "fpr/fpr.h"

namespace fd::fpr {
namespace {

constexpr std::size_t kPairs = 2'500'000;  // per binary-op test: 5M operands

Fpr bits(std::uint64_t b) { return Fpr::from_bits(b); }

Fpr make(unsigned sign, unsigned biased_exp, std::uint64_t mantissa) {
  return bits((static_cast<std::uint64_t>(sign) << 63) |
              (static_cast<std::uint64_t>(biased_exp) << 52) | (mantissa & 0x000FFFFFFFFFFFFFULL));
}

// A finite operand (biased exponent 0..2046; NaN/Inf are unspecified in
// FPEMU) from one of four bands: anywhere, the signing range around
// 1.0, near the subnormal end, near the overflow end.
Fpr random_operand(RandomSource& rng) {
  const std::uint64_t r = rng.next_u64();
  const auto sign = static_cast<unsigned>(r >> 63);
  const std::uint64_t mant = rng.next_u64();
  unsigned e = 0;
  switch (r & 3) {
    case 0: e = static_cast<unsigned>(rng.uniform(2047)); break;
    case 1: e = 1023 - 48 + static_cast<unsigned>(rng.uniform(97)); break;
    case 2: e = static_cast<unsigned>(rng.uniform(80)); break;
    default: e = 2046 - static_cast<unsigned>(rng.uniform(80)); break;
  }
  return make(sign, e, mant);
}

// A partner for x whose exponent sits where the guard decides: a gap of
// 0..64 below x (alignment, cancellation), or a product/quotient that
// lands near the overflow or the underflow threshold.
Fpr partner(RandomSource& rng, Fpr x) {
  const std::uint64_t r = rng.next_u64();
  const auto sign = static_cast<unsigned>(r >> 63);
  const std::uint64_t mant = rng.next_u64();
  const int ex = static_cast<int>(x.biased_exponent());
  int e = 0;
  switch ((r >> 1) % 5) {
    case 0: return random_operand(rng);
    case 1: e = ex - static_cast<int>(rng.uniform(65)); break;             // add gap 0..64
    case 2: e = 2046 + 1023 - ex - static_cast<int>(rng.uniform(4)); break;  // x*y ~ 2^1024
    case 3: e = 1023 + 2 - ex + static_cast<int>(rng.uniform(4)) - 2; break;  // x*y ~ 2^-1021
    default: e = ex - 1023 + static_cast<int>(rng.uniform(5)) - 2; break;  // x/y ~ 2^1023..
  }
  if (e < 0) e = 0;
  if (e > 2046) e = 2046;
  return make(sign, static_cast<unsigned>(e), mant);
}

// Biased exponent 2..2046 on the host FPU: the native path was eligible.
bool host_normal(double d) {
  const std::uint64_t e = (std::bit_cast<std::uint64_t>(d) >> 52) & 0x7FF;
  return e >= 2 && e <= 2046;
}

bool normal(Fpr x) { return x.biased_exponent() >= 1 && x.biased_exponent() <= 2046; }

std::vector<Fpr> edge_operands() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> mags = {
      0.0,
      std::bit_cast<double>(std::uint64_t{1}),                      // min subnormal
      std::bit_cast<double>(std::uint64_t{0x000FFFFFFFFFFFFF}),     // max subnormal
      std::numeric_limits<double>::min(),                           // min normal
      std::nextafter(std::numeric_limits<double>::min(), inf),
      0x1.0p-1021, std::nextafter(0x1.0p-1021, 0.0), 0x1.0p-511, 0x1.0p-510,
      std::numeric_limits<double>::max(),
      std::nextafter(std::numeric_limits<double>::max(), 0.0),
      0x1.0p1023, 0x1.0p512, 0x1.fffffffffffffp511, 0x1.0p511,
      1.0, std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 1.5, 3.0, 0.1, 12289.0,
      0x1.0p52, 0x1.0p53, 0x1.0p-53, 0x1.8p-53,
  };
  for (int gap = 0; gap <= 64; ++gap) mags.push_back(std::ldexp(1.0 + 0x1.0p-52, -gap));
  std::vector<Fpr> out;
  for (const double m : mags) {
    out.push_back(Fpr::from_double(m));
    out.push_back(Fpr::from_double(-m));
  }
  return out;
}

#define EXPECT_SAME(got, want, what, a, b)                                           \
  ASSERT_EQ((got).bits(), (want).bits())                                             \
      << what << " of 0x" << std::hex << (a).bits() << " and 0x" << (b).bits()

TEST(FprNative, MulMatchesEmulation) {
  ASSERT_EQ(leakage_sink(), nullptr);
  ChaCha20Prng rng(std::uint64_t{0xF9E1});
  std::size_t native = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const Fpr x = random_operand(rng);
    const Fpr y = partner(rng, x);
    EXPECT_SAME(fpr_mul(x, y), detail::fpr_mul_emu(x, y), "mul", x, y);
    EXPECT_SAME(fpr_mul(y, x), detail::fpr_mul_emu(y, x), "mul", y, x);
    native += normal(x) && normal(y) && host_normal(x.to_double() * y.to_double());
  }
  // The sweep must exercise both paths heavily.
  EXPECT_GT(native, kPairs / 4);
  EXPECT_LT(native, kPairs - kPairs / 8);
}

TEST(FprNative, AddSubMatchEmulation) {
  ChaCha20Prng rng(std::uint64_t{0xF9E2});
  std::size_t native = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const Fpr x = random_operand(rng);
    const Fpr y = partner(rng, x);
    EXPECT_SAME(fpr_add(x, y), detail::fpr_add_emu(x, y), "add", x, y);
    EXPECT_SAME(fpr_add(y, x), detail::fpr_add_emu(y, x), "add", y, x);
    EXPECT_SAME(fpr_sub(x, y), detail::fpr_add_emu(x, fpr_neg(y)), "sub", x, y);
    EXPECT_SAME(fpr_sub(x, x), detail::fpr_add_emu(x, fpr_neg(x)), "sub", x, x);
    native += normal(x) && normal(y) && host_normal(x.to_double() + y.to_double());
  }
  EXPECT_GT(native, kPairs / 4);
  EXPECT_LT(native, kPairs - kPairs / 8);
}

TEST(FprNative, DivInvSqrtMatchEmulation) {
  ChaCha20Prng rng(std::uint64_t{0xF9E3});
  std::size_t native = 0;
  for (std::size_t i = 0; i < kPairs / 2; ++i) {
    const Fpr x = random_operand(rng);
    const Fpr y = partner(rng, x);
    EXPECT_SAME(fpr_div(x, y), detail::fpr_div_emu(x, y), "div", x, y);
    EXPECT_SAME(fpr_div(y, x), detail::fpr_div_emu(y, x), "div", y, x);
    EXPECT_SAME(fpr_inv(x), detail::fpr_div_emu(kOne, x), "inv", x, x);
    const Fpr ax = Fpr::from_bits(x.bits() & ~detail::kSignBit);  // sqrt requires x >= 0
    EXPECT_SAME(fpr_sqrt(ax), detail::fpr_sqrt_emu(ax), "sqrt", ax, ax);
    native += normal(x) && normal(y) && host_normal(x.to_double() / y.to_double());
  }
  EXPECT_GT(native, kPairs / 8);
}

// -v in two's complement, defined for INT64_MIN too.
std::int64_t negate(std::int64_t v) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(v));
}

// |x| < 2^63: the documented domain of the integer conversions.
Fpr random_convertible(RandomSource& rng) {
  const std::uint64_t r = rng.next_u64();
  const auto sign = static_cast<unsigned>(r >> 63);
  unsigned e = 0;
  switch (r & 3) {
    case 0: e = static_cast<unsigned>(rng.uniform(1086)); break;          // anywhere below 2^63
    case 1: e = 1023 - 4 + static_cast<unsigned>(rng.uniform(24)); break;  // sampler-sized
    case 2: e = 1075 - 3 + static_cast<unsigned>(rng.uniform(6)); break;   // around 2^52
    default: e = 1023 - 60 + static_cast<unsigned>(rng.uniform(60)); break;  // fractions
  }
  return make(sign, e, rng.next_u64());
}

TEST(FprNative, IntegerConversionsMatchEmulation) {
  ChaCha20Prng rng(std::uint64_t{0xF9E4});
  for (std::size_t i = 0; i < kPairs; ++i) {
    const Fpr x = random_convertible(rng);
    ASSERT_EQ(fpr_rint(x), detail::fpr_rint_emu(x)) << "rint 0x" << std::hex << x.bits();
    ASSERT_EQ(fpr_trunc(x), detail::fpr_trunc_emu(x)) << "trunc 0x" << std::hex << x.bits();
    ASSERT_EQ(fpr_floor(x), detail::fpr_floor_emu(x)) << "floor 0x" << std::hex << x.bits();

    // Integers: full width, below 2^53, and straddling +-2^53.
    const std::uint64_t r = rng.next_u64();
    std::int64_t v = static_cast<std::int64_t>(rng.next_u64());
    if ((r & 3) == 1) v >>= 11;
    if ((r & 3) == 2) v = (std::int64_t{1} << 53) - 4 + static_cast<std::int64_t>(rng.uniform(9));
    if ((r & 3) == 3) v = static_cast<std::int64_t>(rng.uniform(1U << 20)) - (1 << 19);
    if ((r >> 2) & 1) v = negate(v);
    const int sc = static_cast<int>(rng.uniform(2 * 1100 + 1)) - 1100;
    ASSERT_EQ(fpr_of(v).bits(), detail::fpr_scaled_emu(v, 0).bits()) << "of " << v;
    ASSERT_EQ(fpr_scaled(v, sc).bits(), detail::fpr_scaled_emu(v, sc).bits())
        << "scaled " << v << " " << sc;
  }
}

TEST(FprNative, EdgeOperandsMatchEmulation) {
  const std::vector<Fpr> edges = edge_operands();
  for (const Fpr x : edges) {
    if (!x.sign() || x.is_zero()) {
      EXPECT_SAME(fpr_sqrt(x), detail::fpr_sqrt_emu(x), "sqrt", x, x);
    }
    EXPECT_SAME(fpr_inv(x), detail::fpr_div_emu(kOne, x), "inv", x, x);
    if (x.biased_exponent() < 1086) {
      EXPECT_EQ(fpr_rint(x), detail::fpr_rint_emu(x)) << std::hex << x.bits();
      EXPECT_EQ(fpr_trunc(x), detail::fpr_trunc_emu(x)) << std::hex << x.bits();
      EXPECT_EQ(fpr_floor(x), detail::fpr_floor_emu(x)) << std::hex << x.bits();
    }
    for (const Fpr y : edges) {
      EXPECT_SAME(fpr_mul(x, y), detail::fpr_mul_emu(x, y), "mul", x, y);
      EXPECT_SAME(fpr_add(x, y), detail::fpr_add_emu(x, y), "add", x, y);
      EXPECT_SAME(fpr_sub(x, y), detail::fpr_add_emu(x, fpr_neg(y)), "sub", x, y);
      EXPECT_SAME(fpr_div(x, y), detail::fpr_div_emu(x, y), "div", x, y);
    }
  }
#ifdef NDEBUG
  // A negative operand is a precondition violation (asserted in debug
  // builds); release FPEMU returns sqrt(|x|), and so must fpr_sqrt.
  for (const Fpr x : edges) {
    if (x.sign()) {
      EXPECT_SAME(fpr_sqrt(x), detail::fpr_sqrt_emu(x), "sqrt", x, x);
    }
  }
#endif
  // Exact halves and the 2^52 / 2^63 conversion boundaries.
  for (const double d : {0.5, 1.5, 2.5, 0x1.0p52 - 0.5, 0x1.0p52 - 1.5, 0x1.0p52 + 1.0,
                         std::nextafter(0x1.0p63, 0.0), 0x1.0p-1074, 0x1.0p-1022}) {
    for (const double s : {d, -d}) {
      const Fpr x = Fpr::from_double(s);
      EXPECT_EQ(fpr_rint(x), detail::fpr_rint_emu(x)) << s;
      EXPECT_EQ(fpr_trunc(x), detail::fpr_trunc_emu(x)) << s;
      EXPECT_EQ(fpr_floor(x), detail::fpr_floor_emu(x)) << s;
    }
  }
  const std::int64_t ints[] = {0, 1, -1, 12289, (std::int64_t{1} << 53) - 1,
                               std::int64_t{1} << 53, (std::int64_t{1} << 53) + 1,
                               std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : ints) {
    EXPECT_EQ(fpr_of(v).bits(), detail::fpr_scaled_emu(v, 0).bits()) << v;
    EXPECT_EQ(fpr_of(negate(v)).bits(), detail::fpr_scaled_emu(negate(v), 0).bits()) << v;
    for (const int sc : {-1100, -1075, -1074, -1023, -1022, -1, 0, 1, 1022, 1023, 1024}) {
      EXPECT_EQ(fpr_scaled(v, sc).bits(), detail::fpr_scaled_emu(v, sc).bits()) << v << " " << sc;
    }
  }
}

// --- the leaking ops under an armed route ---------------------------------

class Recorder final : public LeakageSink {
 public:
  void on_event(LeakageEvent ev) override { events.push_back(ev); }
  std::vector<LeakageEvent> events;
};

class WindowedRecorder final : public LeakageSink {
 public:
  WindowedRecorder() : LeakageSink(Windowed{}) {}
  void on_event(LeakageEvent ev) override { events.push_back(ev); }
  void open(bool o) { set_window_open(o); }
  std::vector<LeakageEvent> events;
};

// Event counts of one mul, add and sub of nonzero normal operands.
struct Counts {
  std::size_t mul, add, sub;
};

template <typename Sink>
Counts run_ops(Sink& sink) {
  const Fpr x = Fpr::from_bits(0xC06017BC8036B580ULL);  // the paper's example
  const Fpr y = Fpr::from_double(1.75);
  Fpr want_mul, want_add, want_sub;
  {
    ScopedLeakageSink quiet(nullptr);  // the reference bodies leak too
    want_mul = detail::fpr_mul_emu(x, y);
    want_add = detail::fpr_add_emu(x, y);
    want_sub = detail::fpr_add_emu(x, fpr_neg(y));
  }
  Counts c{};
  std::size_t before = sink.events.size();
  EXPECT_EQ(fpr_mul(x, y).bits(), want_mul.bits());
  c.mul = sink.events.size() - before;
  before = sink.events.size();
  EXPECT_EQ(fpr_add(x, y).bits(), want_add.bits());
  c.add = sink.events.size() - before;
  before = sink.events.size();
  EXPECT_EQ(fpr_sub(x, y).bits(), want_sub.bits());
  c.sub = sink.events.size() - before;
  return c;
}

TEST(FprNative, OpenWindowRecords17EventsPerMulAnd3PerAdd) {
  WindowedRecorder w;
  ScopedLeakageSink scope(&w);
  w.open(true);
  Counts c = run_ops(w);
  EXPECT_EQ(c.mul, 17U);
  EXPECT_EQ(c.add, 3U);
  EXPECT_EQ(c.sub, 3U);
  w.open(false);
  c = run_ops(w);
  EXPECT_EQ(c.mul + c.add + c.sub, 0U);
  w.open(true);
  c = run_ops(w);
  EXPECT_EQ(c.mul, 17U);
  EXPECT_EQ(c.add, 3U);
}

TEST(FprNative, UngatedSinkSeesEveryEvent) {
  Recorder r;
  ScopedLeakageSink scope(&r);
  const Counts c = run_ops(r);
  EXPECT_EQ(c.mul, 17U);
  EXPECT_EQ(c.add, 3U);
  EXPECT_EQ(c.sub, 3U);
}

TEST(FprNative, NestedScopeRestoresArming) {
  WindowedRecorder outer;
  ScopedLeakageSink scope(&outer);
  outer.open(true);
  {
    ScopedLeakageSink none(nullptr);
    EXPECT_EQ(run_ops(outer).mul, 0U);
  }
  EXPECT_EQ(run_ops(outer).mul, 17U);
  {
    WindowedRecorder closed;
    ScopedLeakageSink inner(&closed);
    const Counts c = run_ops(closed);
    EXPECT_EQ(c.mul + c.add + c.sub, 0U);
  }
  EXPECT_EQ(run_ops(outer).add, 3U);
  {
    Recorder ungated;
    ScopedLeakageSink inner(&ungated);
    EXPECT_EQ(run_ops(ungated).mul, 17U);
  }
  outer.open(false);
  {
    Recorder ungated;
    ScopedLeakageSink inner(&ungated);
    EXPECT_EQ(run_ops(ungated).mul, 17U);
  }
  EXPECT_EQ(run_ops(outer).mul, 0U);
  outer.open(true);
  EXPECT_EQ(run_ops(outer).mul, 17U);
}


// --- zero and subnormal operands ------------------------------------------
//
// fpr_mul with a zero-exponent operand and fpr_add/fpr_sub of such an
// operand with a native one have closed forms off the data route
// (DESIGN.md section 19): FPEMU's early signed zero, and the other
// operand unchanged. Random normals against +-0 and random subnormals
// hold them to the emulation, and an open window still records every
// event of the emulated bodies.

std::vector<Fpr> zero_exponent_operands(RandomSource& rng) {
  std::vector<Fpr> out = {kZero, fpr_neg(kZero), make(0, 0, 1), make(1, 0, 1),
                          make(0, 0, 0x000FFFFFFFFFFFFFULL), make(1, 0, 0x000FFFFFFFFFFFFFULL)};
  for (int i = 0; i < 26; ++i) {
    const std::uint64_t mant = rng.next_u64() & 0x000FFFFFFFFFFFFFULL;
    out.push_back(make(static_cast<unsigned>(i & 1), 0, mant == 0 ? 1 : mant));
  }
  return out;
}

Fpr random_normal(RandomSource& rng) {
  for (;;) {
    const Fpr x = random_operand(rng);
    if (normal(x)) return x;
  }
}

TEST(FprNative, ZeroAndSubnormalOperandsMatchEmulation) {
  ASSERT_EQ(leakage_sink(), nullptr);
  ChaCha20Prng rng(std::uint64_t{0xF9E5});
  const std::vector<Fpr> zs = zero_exponent_operands(rng);
  for (std::size_t i = 0; i < 20'000; ++i) {
    const Fpr x = random_normal(rng);
    for (const Fpr z : zs) {
      EXPECT_SAME(fpr_mul(x, z), detail::fpr_mul_emu(x, z), "mul", x, z);
      EXPECT_SAME(fpr_mul(z, x), detail::fpr_mul_emu(z, x), "mul", z, x);
      EXPECT_SAME(fpr_add(x, z), detail::fpr_add_emu(x, z), "add", x, z);
      EXPECT_SAME(fpr_add(z, x), detail::fpr_add_emu(z, x), "add", z, x);
      EXPECT_SAME(fpr_sub(x, z), detail::fpr_add_emu(x, fpr_neg(z)), "sub", x, z);
      EXPECT_SAME(fpr_sub(z, x), detail::fpr_add_emu(z, fpr_neg(x)), "sub", z, x);
    }
  }
  for (const Fpr a : zs) {
    for (const Fpr b : zs) {
      EXPECT_SAME(fpr_mul(a, b), detail::fpr_mul_emu(a, b), "mul", a, b);
      EXPECT_SAME(fpr_add(a, b), detail::fpr_add_emu(a, b), "add", a, b);
      EXPECT_SAME(fpr_sub(a, b), detail::fpr_add_emu(a, fpr_neg(b)), "sub", a, b);
    }
  }

  // Under an open window every op emulates and leaks: the events of the
  // public op equal those of the emulated body, 17 per mul and 3 per add
  // of normal operands, FPEMU's lone sign event for a zero-exponent mul.
  const auto events_of = [](auto op) {
    WindowedRecorder w;
    ScopedLeakageSink scope(&w);
    w.open(true);
    const Fpr r = op();
    std::vector<std::uint64_t> out = {r.bits()};
    for (const auto& ev : w.events) {
      out.push_back(static_cast<std::uint64_t>(ev.tag));
      out.push_back(ev.value);
    }
    return out;
  };
  for (std::size_t i = 0; i < 200; ++i) {
    const Fpr x = random_normal(rng);
    const Fpr y = random_normal(rng);
    EXPECT_EQ(events_of([&] { return fpr_mul(x, y); }).size(), 1U + 2 * 17);
    EXPECT_EQ(events_of([&] { return fpr_add(x, y); }).size(), 1U + 2 * 3);
    EXPECT_EQ(events_of([&] { return fpr_sub(x, y); }).size(), 1U + 2 * 3);
    for (const Fpr z : zs) {
      const auto mul = events_of([&] { return fpr_mul(x, z); });
      EXPECT_EQ(mul, events_of([&] { return detail::fpr_mul_emu(x, z); }));
      EXPECT_EQ(mul.size(), 1U + 2 * 1);
      const auto add = events_of([&] { return fpr_add(z, x); });
      EXPECT_EQ(add, events_of([&] { return detail::fpr_add_emu(z, x); }));
      EXPECT_EQ(add.size(), 1U + 2 * 3);
      const auto sub = events_of([&] { return fpr_sub(x, z); });
      EXPECT_EQ(sub, events_of([&] { return detail::fpr_add_emu(x, fpr_neg(z)); }));
      EXPECT_EQ(sub.size(), 1U + 2 * 3);
    }
  }
}

}  // namespace
}  // namespace fd::fpr
