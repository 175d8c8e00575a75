// Instrumentation of the Z_q datapath (the Section V.C comparison
// substrate): modmul and NTT butterflies must emit the documented events.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fpr/leakage.h"
#include "zq/zq.h"

namespace fd::zq {
namespace {

class Recorder final : public fpr::LeakageSink {
 public:
  void on_event(fpr::LeakageEvent ev) override { events.push_back(ev); }
  std::vector<fpr::LeakageEvent> events;
};

TEST(ZqLeakage, MulEmitsProductAndReduction) {
  Recorder rec;
  {
    fpr::ScopedLeakageSink scope(&rec);
    (void)mul(123, 456);
  }
  ASSERT_EQ(rec.events.size(), 2U);
  EXPECT_EQ(rec.events[0].tag, fpr::LeakageTag::kNttProd);
  EXPECT_EQ(rec.events[0].value, 123U * 456U);
  EXPECT_EQ(rec.events[1].tag, fpr::LeakageTag::kNttReduced);
  EXPECT_EQ(rec.events[1].value, (123U * 456U) % kQ);
}

TEST(ZqLeakage, NttEmitsButterflyEvents) {
  Recorder rec;
  std::vector<std::uint32_t> f(16);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = static_cast<std::uint32_t>(i * 37 % kQ);
  {
    fpr::ScopedLeakageSink scope(&rec);
    ntt(f, 4);
  }
  // n/2 * logn butterflies, each: prod, reduced, add, sub = 4 events.
  EXPECT_EQ(rec.events.size(), 8U * 4U * 4U);
  int adds = 0;
  int subs = 0;
  for (const auto& ev : rec.events) {
    adds += ev.tag == fpr::LeakageTag::kNttButterflyAdd;
    subs += ev.tag == fpr::LeakageTag::kNttButterflySub;
    // Every butterfly output is a valid residue.
    if (ev.tag == fpr::LeakageTag::kNttButterflyAdd ||
        ev.tag == fpr::LeakageTag::kNttButterflySub ||
        ev.tag == fpr::LeakageTag::kNttReduced) {
      EXPECT_LT(ev.value, kQ);
    }
  }
  EXPECT_EQ(adds, 32);
  EXPECT_EQ(subs, 32);
}

TEST(ZqLeakage, NoSinkIsSilentAndCorrect) {
  // Instrumentation must not perturb results.
  std::vector<std::uint32_t> f(32);
  ChaCha20Prng rng(0xAB01);
  for (auto& c : f) c = static_cast<std::uint32_t>(rng.uniform(kQ));
  auto plain = f;
  ntt(plain, 5);

  Recorder rec;
  auto instrumented = f;
  {
    fpr::ScopedLeakageSink scope(&rec);
    ntt(instrumented, 5);
  }
  EXPECT_EQ(plain, instrumented);
  EXPECT_FALSE(rec.events.empty());
}

}  // namespace
}  // namespace fd::zq
