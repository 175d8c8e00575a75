// Leakage hook behaviour: event ordering, values, nesting, and the
// guarantee that hypothesis models (mul_mantissa_steps) see exactly what
// the instrumented fpr_mul emits.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fpr/fpr.h"

namespace fd::fpr {
namespace {

class Recorder final : public LeakageSink {
 public:
  void on_event(const LeakageEvent& ev) override { events.push_back(ev); }
  std::vector<LeakageEvent> events;

  [[nodiscard]] const LeakageEvent* find(LeakageTag tag) const {
    for (const auto& e : events) {
      if (e.tag == tag) return &e;
    }
    return nullptr;
  }
};

TEST(FprLeakage, NoSinkNoEvents) {
  ASSERT_EQ(leakage_sink(), nullptr);
  (void)fpr_mul(Fpr::from_double(1.5), Fpr::from_double(2.5));  // must not crash
}

TEST(FprLeakage, ScopedSinkRestores) {
  Recorder r;
  {
    ScopedLeakageSink scope(&r);
    EXPECT_EQ(leakage_sink(), &r);
    {
      ScopedLeakageSink inner(nullptr);
      EXPECT_EQ(leakage_sink(), nullptr);
    }
    EXPECT_EQ(leakage_sink(), &r);
  }
  EXPECT_EQ(leakage_sink(), nullptr);
}

TEST(FprLeakage, MulEmitsPipelineInOrder) {
  Recorder r;
  const Fpr x = Fpr::from_bits(0xC06017BC8036B580ULL);  // the paper's example
  const Fpr y = Fpr::from_double(1.75);
  {
    ScopedLeakageSink scope(&r);
    (void)fpr_mul(x, y);
  }
  // Expected order: sign, exponents, operand splits, products/accs, result.
  const std::vector<LeakageTag> expect = {
      LeakageTag::kMulSign,      LeakageTag::kMulExpX,      LeakageTag::kMulExpY,
      LeakageTag::kMulExpSum,    LeakageTag::kMulOperandXLo, LeakageTag::kMulOperandXHi,
      LeakageTag::kMulOperandYLo, LeakageTag::kMulOperandYHi, LeakageTag::kMulProdLL,
      LeakageTag::kMulProdLH,    LeakageTag::kMulAccZ1a,    LeakageTag::kMulProdHL,
      LeakageTag::kMulAccZ1b,    LeakageTag::kMulAccZ2,     LeakageTag::kMulProdHH,
      LeakageTag::kMulAccZu,     LeakageTag::kMulResult};
  ASSERT_EQ(r.events.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.events[i].tag, expect[i]) << "at " << i;
  }
}

TEST(FprLeakage, MulEventValuesMatchStepsFunction) {
  ChaCha20Prng rng(0x3001);
  for (int i = 0; i < 500; ++i) {
    const double a = (static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53 - 0.5) * 256.0;
    const double b = (static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53 - 0.5) * 256.0;
    if (a == 0.0 || b == 0.0) continue;
    const Fpr x = Fpr::from_double(a);
    const Fpr y = Fpr::from_double(b);

    Recorder r;
    {
      ScopedLeakageSink scope(&r);
      (void)fpr_mul(x, y);
    }
    const MulMantissaSteps st = mul_mantissa_steps(x.significand(), y.significand());
    ASSERT_NE(r.find(LeakageTag::kMulProdLL), nullptr);
    EXPECT_EQ(r.find(LeakageTag::kMulProdLL)->value, st.prod_ll);
    EXPECT_EQ(r.find(LeakageTag::kMulProdLH)->value, st.prod_lh);
    EXPECT_EQ(r.find(LeakageTag::kMulProdHL)->value, st.prod_hl);
    EXPECT_EQ(r.find(LeakageTag::kMulProdHH)->value, st.prod_hh);
    EXPECT_EQ(r.find(LeakageTag::kMulAccZ1a)->value, st.z1a);
    EXPECT_EQ(r.find(LeakageTag::kMulAccZ1b)->value, st.z1b);
    EXPECT_EQ(r.find(LeakageTag::kMulAccZu)->value, st.zu);
    EXPECT_EQ(r.find(LeakageTag::kMulOperandXLo)->value, st.x0);
    EXPECT_EQ(r.find(LeakageTag::kMulOperandXHi)->value, st.x1);
    EXPECT_EQ(r.find(LeakageTag::kMulSign)->value,
              static_cast<std::uint64_t>(x.sign() != y.sign()));
    EXPECT_EQ(r.find(LeakageTag::kMulExpSum)->value,
              static_cast<std::uint32_t>(static_cast<std::int32_t>(x.biased_exponent() +
                                                                   y.biased_exponent()) -
                                         2100));
  }
}

TEST(FprLeakage, AddEmitsEvents) {
  Recorder r;
  {
    ScopedLeakageSink scope(&r);
    (void)fpr_add(Fpr::from_double(1.0), Fpr::from_double(1e-3));
  }
  ASSERT_NE(r.find(LeakageTag::kAddAlignShift), nullptr);
  ASSERT_NE(r.find(LeakageTag::kAddMantSum), nullptr);
  ASSERT_NE(r.find(LeakageTag::kAddResult), nullptr);
  EXPECT_EQ(r.find(LeakageTag::kAddAlignShift)->value, 10U);  // 2^-10 apart
}

TEST(FprLeakage, ZeroMulShortCircuitsAfterSign) {
  Recorder r;
  {
    ScopedLeakageSink scope(&r);
    (void)fpr_mul(Fpr::from_double(-2.0), kZero);
  }
  ASSERT_EQ(r.events.size(), 1U);
  EXPECT_EQ(r.events[0].tag, LeakageTag::kMulSign);
  EXPECT_EQ(r.events[0].value, 1U);
}

// A windowed sink that opens its window on any begin marker and closes
// it on any end marker, counting every on_event call it receives.
class WindowedCounter final : public LeakageSink {
 public:
  WindowedCounter() : LeakageSink(Windowed{}) {}
  void on_event(const LeakageEvent& ev) override {
    if (ev.tag == LeakageTag::kTriggerBegin) {
      ++markers;
      set_window_open(true);
    } else if (ev.tag == LeakageTag::kTriggerEnd) {
      ++markers;
      set_window_open(false);
    } else {
      ++data;
    }
  }
  int markers = 0;
  int data = 0;
};

void one_mul() { (void)fpr_mul(Fpr::from_double(1.5), Fpr::from_double(2.5)); }
constexpr int kMulEvents = 17;  // events of one nonzero fpr_mul

TEST(FprLeakageGate, WindowedSinkSeesMarkersAlwaysDataOnlyInsideWindow) {
  WindowedCounter w;
  ScopedLeakageSink scope(&w);
  one_mul();  // outside any window: dropped before the virtual call
  EXPECT_EQ(w.data, 0);
  leak(LeakageTag::kTriggerBegin, 0);
  one_mul();
  leak(LeakageTag::kTriggerEnd, 0);
  one_mul();
  EXPECT_EQ(w.markers, 2);
  EXPECT_EQ(w.data, kMulEvents);
}

TEST(FprLeakageGate, UngatedSinkSeesEverything) {
  Recorder r;
  ScopedLeakageSink scope(&r);
  one_mul();
  leak(LeakageTag::kTriggerBegin, 0);
  leak(LeakageTag::kTriggerEnd, 0);
  one_mul();
  EXPECT_EQ(r.events.size(), static_cast<std::size_t>(2 * kMulEvents + 2));
}

TEST(FprLeakageGate, NestedScopeRestoresArming) {
  WindowedCounter outer;
  ScopedLeakageSink scope(&outer);
  leak(LeakageTag::kTriggerBegin, 0);  // outer window open
  {
    WindowedCounter inner;  // closed window: the thread is disarmed
    ScopedLeakageSink nested(&inner);
    one_mul();
    EXPECT_EQ(inner.data, 0);
    {
      ScopedLeakageSink none(nullptr);
      one_mul();
    }
    one_mul();
    EXPECT_EQ(inner.data, 0);
    EXPECT_EQ(outer.data, 0);
  }
  one_mul();  // back in the outer window
  EXPECT_EQ(outer.data, kMulEvents);
  leak(LeakageTag::kTriggerEnd, 0);
  {
    Recorder ungated;
    ScopedLeakageSink nested(&ungated);
    one_mul();
    EXPECT_EQ(ungated.events.size(), static_cast<std::size_t>(kMulEvents));
  }
  one_mul();  // outer window closed again
  EXPECT_EQ(outer.data, kMulEvents);
}

TEST(FprLeakageGate, DrivingAnUninstalledSinkNeverArmsTheThread) {
  WindowedCounter installed;
  WindowedCounter bystander;
  ScopedLeakageSink scope(&installed);
  bystander.on_event({LeakageTag::kTriggerBegin, 0});
  EXPECT_TRUE(bystander.window_open());
  one_mul();
  EXPECT_EQ(installed.data, 0);
  EXPECT_EQ(bystander.data, 0);
  {
    // With no sink installed, a hand-driven begin marker arms nothing.
    ScopedLeakageSink none(nullptr);
    WindowedCounter loose;
    loose.on_event({LeakageTag::kTriggerBegin, 0});
    EXPECT_EQ(leakage_sink(), nullptr);
    one_mul();
    EXPECT_EQ(loose.data, 0);
  }
  one_mul();
  EXPECT_EQ(installed.data, 0);
}

TEST(FprLeakage, TagNamesAreUnique) {
  for (unsigned i = 0; i < static_cast<unsigned>(LeakageTag::kNumTags); ++i) {
    for (unsigned j = i + 1; j < static_cast<unsigned>(LeakageTag::kNumTags); ++j) {
      EXPECT_STRNE(leakage_tag_name(static_cast<LeakageTag>(i)),
                   leakage_tag_name(static_cast<LeakageTag>(j)));
    }
  }
}

}  // namespace
}  // namespace fd::fpr
