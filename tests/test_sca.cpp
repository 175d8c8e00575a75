// Capture rig and device model: trigger windowing, event schedules,
// leakage-to-trace synthesis, countermeasure knobs, campaign structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/ziggurat.h"
#include "exec/seed_split.h"
#include "falcon/falcon.h"
#include "falcon/masked_sign.h"
#include "sca/campaign.h"
#include "sca/capture.h"
#include "sca/device.h"
#include "sca/faults.h"
#include "tracestore/archive.h"

namespace fd::sca {
namespace {

using fpr::Fpr;
using fpr::LeakageEvent;
using fpr::LeakageTag;

std::vector<LeakageEvent> synthetic_window(std::uint64_t base_value, std::size_t count) {
  std::vector<LeakageEvent> ev(count);
  for (std::size_t i = 0; i < count; ++i) {
    ev[i] = {LeakageTag::kMulProdLL, base_value + i};
  }
  return ev;
}

TEST(EventWindowRecorder, CapturesOnlyTargetWindow) {
  EventWindowRecorder rec(/*slot=*/1);
  rec.on_event({LeakageTag::kTriggerBegin, 0});
  rec.on_event({LeakageTag::kMulProdLL, 111});
  rec.on_event({LeakageTag::kTriggerEnd, 0});
  rec.on_event({LeakageTag::kTriggerBegin, 1});
  rec.on_event({LeakageTag::kMulProdLL, 222});
  rec.on_event({LeakageTag::kTriggerEnd, 1});
  ASSERT_TRUE(rec.complete());
  ASSERT_EQ(rec.events().size(), 1U);
  EXPECT_EQ(rec.events()[0].value, 222U);
}

TEST(EventWindowRecorder, OccurrenceSelection) {
  EventWindowRecorder rec(/*slot=*/0, /*occurrence=*/1);
  for (int occ = 0; occ < 3; ++occ) {
    rec.on_event({LeakageTag::kTriggerBegin, 0});
    rec.on_event({LeakageTag::kMulProdLL, static_cast<std::uint64_t>(100 + occ)});
    rec.on_event({LeakageTag::kTriggerEnd, 0});
  }
  ASSERT_TRUE(rec.complete());
  // occurrence 1 captured; occurrence 2 must not overwrite it.
  ASSERT_EQ(rec.events().size(), 1U);
  EXPECT_EQ(rec.events()[0].value, 101U);
}

TEST(EmDeviceModel, NoiselessAmplitudeIsHammingWeight) {
  DeviceConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.alpha = 2.0;
  EmDeviceModel dev(cfg);
  const auto tr = dev.synthesize(synthetic_window(0b1011, 1));  // HW 3
  ASSERT_EQ(tr.samples.size(), 1U);
  EXPECT_FLOAT_EQ(tr.samples[0], 6.0F);
}

TEST(EmDeviceModel, NoiseHasConfiguredSpread) {
  DeviceConfig cfg;
  cfg.noise_sigma = 5.0;
  EmDeviceModel dev(cfg, /*noise_seed=*/7);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const auto tr = dev.synthesize(synthetic_window(0xFF, 1));  // HW 8
    sum += tr.samples[0];
    sum2 += static_cast<double>(tr.samples[0]) * tr.samples[0];
  }
  const double mean = sum / kDraws;
  const double sd = std::sqrt(sum2 / kDraws - mean * mean);
  EXPECT_NEAR(mean, 8.0, 0.2);
  EXPECT_NEAR(sd, 5.0, 0.2);
}

TEST(EmDeviceModel, ConstantWeightHidesData) {
  DeviceConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.constant_weight = true;
  EmDeviceModel dev(cfg);
  const auto t1 = dev.synthesize(synthetic_window(0x0, 1));
  const auto t2 = dev.synthesize(synthetic_window(0xFFFFFFFFFFFFFFFFULL, 1));
  EXPECT_FLOAT_EQ(t1.samples[0], t2.samples[0]);
}

TEST(EmDeviceModel, JitterShiftsWindow) {
  DeviceConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.jitter_max = 4;
  EmDeviceModel dev(cfg, 9);
  bool saw_shift = false;
  for (int i = 0; i < 50 && !saw_shift; ++i) {
    const auto tr = dev.synthesize(synthetic_window(0xFF, 1));
    ASSERT_EQ(tr.samples.size(), 5U);  // 1 event + jitter margin
    saw_shift = tr.samples[0] == 0.0F && tr.samples[1] + tr.samples[2] + tr.samples[3] +
                                                 tr.samples[4] >
                                             0.0F;
  }
  EXPECT_TRUE(saw_shift);
}

TEST(EmDeviceModel, SynthesizeIntoMatchesSynthesize) {
  DeviceConfig cfg;
  cfg.noise_sigma = 3.0;
  cfg.samples_per_event = 2;
  cfg.jitter_max = 3;
  EmDeviceModel fresh(cfg, 11);
  EmDeviceModel reused(cfg, 11);
  std::vector<float> out;
  for (int i = 0; i < 20; ++i) {
    const auto window = synthetic_window(0x1234 + static_cast<std::uint64_t>(i), 7);
    const Trace want = fresh.synthesize(window);
    reused.synthesize_into(window, out);
    ASSERT_EQ(out, want.samples) << "window " << i;
  }
}

// The synthesis written out the long way: amplitudes float(alpha * HW)
// into a zeroed window, the window's unit normals in one fill_normals
// call into a double buffer, then float(noise_sigma * z) added sample by
// sample. The device's one-pass synthesis must equal it bit for bit.
class ReferenceSynthesis {
 public:
  ReferenceSynthesis(const DeviceConfig& cfg, std::uint64_t seed) : cfg_(cfg), rng_(seed) {}

  std::vector<float> synthesize(const std::vector<LeakageEvent>& events) {
    const unsigned spe = cfg_.samples_per_event;
    const std::size_t jitter = cfg_.jitter_max == 0 ? 0 : rng_.uniform(cfg_.jitter_max + 1);
    std::vector<float> out(events.size() * spe + cfg_.jitter_max, 0.0F);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const int hw = cfg_.constant_weight ? 32 : std::popcount(events[i].value);
      for (unsigned s = 0; s < spe; ++s) {
        out[i * spe + s + jitter] = static_cast<float>(cfg_.alpha * hw);
      }
    }
    std::vector<double> z(out.size());
    fill_normals(rng_, z);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += static_cast<float>(cfg_.noise_sigma * z[i]);
    }
    return out;
  }

 private:
  DeviceConfig cfg_;
  ChaCha20Prng rng_;
};

TEST(EmDeviceModel, SynthesizeIntoMatchesScalarReference) {
  struct Case {
    double alpha, sigma;
    unsigned spe, jitter;
    bool constant_weight;
  };
  const Case cases[] = {
      {1.0, 12.0, 1, 0, false},  {1.0, 2.0, 2, 0, false},   {0.75, 3.0, 2, 5, false},
      {1.0, 12.0, 1, 0, true},   {-1.5, 0.5, 3, 4, true},   {-2.0, 1e-3, 1, 7, false},
      {1.0, 0.0, 2, 3, false}};
  for (const Case& c : cases) {
    DeviceConfig cfg;
    cfg.alpha = c.alpha;
    cfg.noise_sigma = c.sigma;
    cfg.samples_per_event = c.spe;
    cfg.jitter_max = c.jitter;
    cfg.constant_weight = c.constant_weight;
    EmDeviceModel device(cfg, 0x5E1F);
    ReferenceSynthesis ref(cfg, 0x5E1F);
    std::vector<float> out;
    // Real window lengths, an empty window, and one longer than a
    // ziggurat block; values with every Hamming weight 0 .. 64.
    std::uint64_t v = 0;
    for (const std::size_t events : {window::kEventsPerWindow, std::size_t{1}, std::size_t{0},
                                     std::size_t{300}, window::kEventsPerWindow}) {
      std::vector<LeakageEvent> w(events);
      for (LeakageEvent& ev : w) {
        const unsigned ones = static_cast<unsigned>(v++ % 65);
        ev = {LeakageTag::kMulProdLL, ones == 0 ? 0 : ~std::uint64_t{0} >> (64 - ones)};
      }
      device.synthesize_into(w, out);
      const std::vector<float> want = ref.synthesize(w);
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), std::bit_cast<std::uint32_t>(want[i]))
            << "alpha " << c.alpha << " spe " << c.spe << " jitter " << c.jitter
            << " constant_weight " << c.constant_weight << " window of " << events
            << " sample " << i;
      }
    }
  }
}

// One rejection per flagged config: the predicate and the constructor
// agree, so no model exists for a config synthesis cannot run on.
void expect_rejected(const DeviceConfig& cfg) {
  EXPECT_FALSE(cfg.valid());
  EXPECT_THROW(EmDeviceModel{cfg}, std::invalid_argument);
}

TEST(DeviceConfig, DefaultsAndPaperKnobsAreValid) {
  DeviceConfig cfg;
  EXPECT_TRUE(cfg.valid());
  cfg.samples_per_event = 4;
  cfg.jitter_max = 8;
  cfg.constant_weight = true;
  cfg.noise_sigma = 0.0;
  EXPECT_TRUE(cfg.valid());
  EXPECT_NO_THROW(EmDeviceModel{cfg});
}

TEST(DeviceConfig, RejectsZeroSamplesPerEvent) {
  DeviceConfig cfg;
  cfg.samples_per_event = 0;
  expect_rejected(cfg);
}

TEST(DeviceConfig, RejectsJitterWhosePlusOneWraps) {
  DeviceConfig cfg;
  cfg.jitter_max = 0xFFFFFFFFU;
  expect_rejected(cfg);
}

TEST(DeviceConfig, RejectsWindowPastCap) {
  DeviceConfig cfg;
  cfg.samples_per_event = 14'000'000;  // 74 events -> 1.04e9 samples, under the archive bound
  expect_rejected(cfg);
  cfg.samples_per_event = 1;
  cfg.jitter_max = static_cast<unsigned>(window::kMaxSamples - window::kEventsPerWindow + 1);
  expect_rejected(cfg);
  cfg.jitter_max = static_cast<unsigned>(window::kMaxSamples - window::kEventsPerWindow);
  EXPECT_TRUE(cfg.valid());  // exactly at the cap
}

TEST(DeviceConfig, RejectsNonFiniteAlphaOrSigma) {
  for (const double bad : {std::nan(""), double{INFINITY}, -double{INFINITY}}) {
    DeviceConfig a;
    a.alpha = bad;
    expect_rejected(a);
    DeviceConfig s;
    s.noise_sigma = bad;
    expect_rejected(s);
  }
}

TEST(Campaign, WindowHasExpectedSchedule) {
  ChaCha20Prng rng(0xA001);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 3;
  cfg.device.noise_sigma = 0.0;
  const TraceSet set = run_signing_campaign(kp.sk, /*slot=*/2, cfg);
  ASSERT_EQ(set.traces.size(), 3U);
  for (const auto& ct : set.traces) {
    // 4 muls x 17 events + 2 adds x 3 events.
    EXPECT_EQ(ct.trace.samples.size(), window::kEventsPerWindow);
    // The known FFT(c) slot is a real nonzero floating-point value.
    EXPECT_NE(ct.known_re.to_double(), 0.0);
    EXPECT_NE(ct.known_im.to_double(), 0.0);
  }
}

TEST(Campaign, NoiselessTraceMatchesPredictedLeakage) {
  // With zero noise, the sample at the ProdLL offset of mul block 0 must
  // equal HW(x0 * y0) where x is the secret FFT(-f)[slot] and y the
  // adversary-recomputed FFT(c)[slot].
  ChaCha20Prng rng(0xA002);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 5;
  cfg.device.noise_sigma = 0.0;
  const std::size_t slot = 1;
  const TraceSet set = run_signing_campaign(kp.sk, slot, cfg);

  const Fpr secret_re = kp.sk.b01[slot];
  for (const auto& ct : set.traces) {
    const auto st = fpr::mul_mantissa_steps(secret_re.significand(), ct.known_re.significand());
    const float expect = static_cast<float>(std::popcount(st.prod_ll));
    EXPECT_FLOAT_EQ(ct.trace.samples[window::kOffProdLL], expect);
    const float expect_zu = static_cast<float>(std::popcount(st.zu));
    EXPECT_FLOAT_EQ(ct.trace.samples[window::kOffAccZu], expect_zu);
    // Sign event: HW(sx ^ sy).
    const float expect_sign =
        static_cast<float>(secret_re.sign() != ct.known_re.sign());
    EXPECT_FLOAT_EQ(ct.trace.samples[window::kOffSign], expect_sign);
  }
}

TEST(Campaign, KnownInputsVaryAcrossTraces) {
  ChaCha20Prng rng(0xA003);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 8;
  const TraceSet set = run_signing_campaign(kp.sk, 0, cfg);
  int distinct = 0;
  for (std::size_t i = 1; i < set.traces.size(); ++i) {
    distinct += set.traces[i].known_re.bits() != set.traces[0].known_re.bits();
  }
  EXPECT_GE(distinct, 6);
}

TEST(Campaign, FullCampaignCoversAllSlots) {
  ChaCha20Prng rng(0xA004);
  const auto kp = falcon::keygen(3, rng);
  CampaignConfig cfg;
  cfg.num_traces = 2;
  const auto sets = run_full_campaign(kp.sk, cfg);
  ASSERT_EQ(sets.size(), 4U);  // n/2 = 4 complex slots
  for (std::size_t s = 0; s < sets.size(); ++s) {
    EXPECT_EQ(sets[s].slot, s);
    ASSERT_EQ(sets[s].traces.size(), 2U);
    EXPECT_EQ(sets[s].traces[0].trace.samples.size(), window::kEventsPerWindow);
  }
}

// --- gated capture: a windowed recorder sees what an ungated one keeps ---

void expect_same_events(std::span<const LeakageEvent> got,
                        std::span<const LeakageEvent> want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].tag, want[i].tag) << where << " event " << i;
    ASSERT_EQ(got[i].value, want[i].value) << where << " event " << i;
  }
}

// Runs `signer` twice with the same randomness: once with a FullRecorder
// installed (every event), replayed by hand into a reference recorder --
// direct on_event calls are ungated delivery -- and once with the
// recorder under test installed, where the thread gates its data events.
using SignerFn = falcon::Signature (*)(const falcon::SecretKey&, std::string_view,
                                       RandomSource&);

void expect_windowed_matches_ungated(SignerFn signer, unsigned row) {
  ChaCha20Prng krng(0xA0A0 + row);
  const auto kp = falcon::keygen(4, krng);
  const std::size_t hn = kp.sk.params.n >> 1;
  for (int q = 0; q < 6; ++q) {
    const std::string msg = "gate-" + std::to_string(q);
    FullRecorder all;
    {
      ChaCha20Prng rng(0x6A7E + q);
      fpr::ScopedLeakageSink scope(&all);
      (void)signer(kp.sk, msg, rng);
    }
    LastWindowRecorder ref(hn, row);
    ref.start_run();
    std::vector<EventWindowRecorder> ref_slots;
    for (std::size_t s = 0; s < hn; ++s) ref_slots.emplace_back(s, row);
    for (const auto& ev : all.events()) {
      ref.on_event(ev);
      for (auto& r : ref_slots) r.on_event(ev);
    }

    LastWindowRecorder gated(hn, row);
    gated.start_run();
    {
      ChaCha20Prng rng(0x6A7E + q);
      fpr::ScopedLeakageSink scope(&gated);
      (void)signer(kp.sk, msg, rng);
    }
    for (std::size_t s = 0; s < hn; ++s) {
      ASSERT_EQ(gated.window(s).size(), window::kEventsPerWindow);
      expect_same_events(gated.window(s), ref.window(s),
                         "query " + std::to_string(q) + " slot " + std::to_string(s));
    }

    // The single-window scope, slot by slot, against the same replay.
    for (std::size_t s = 0; s < hn; ++s) {
      EventWindowRecorder one(s, row);
      {
        ChaCha20Prng rng(0x6A7E + q);
        fpr::ScopedLeakageSink scope(&one);
        (void)signer(kp.sk, msg, rng);
      }
      ASSERT_TRUE(one.complete());
      expect_same_events(one.events(), ref_slots[s].events(),
                         "scope query " + std::to_string(q) + " slot " + std::to_string(s));
    }
  }
}

TEST(GatedCapture, PlainSignerRow0) { expect_windowed_matches_ungated(&falcon::sign, 0); }
TEST(GatedCapture, PlainSignerRow1) { expect_windowed_matches_ungated(&falcon::sign, 1); }
TEST(GatedCapture, MaskedSignerRow0) { expect_windowed_matches_ungated(&falcon::sign_masked, 0); }
TEST(GatedCapture, MaskedSignerRow1) { expect_windowed_matches_ungated(&falcon::sign_masked, 1); }

// --- event streams: every leak() of a signing run, pinned ------------------
//
// FNV-1a 64 over (tag, value) of each event a FullRecorder sees during
// one fixed-seed signing, recorded before ops went native outside
// trigger windows (DESIGN.md section 19). An ungated sink keeps every op
// on the emulated path, so the stream must not change by one event.

struct StreamDigest {
  std::size_t events = 0;
  std::uint64_t fnv = 0xCBF29CE484222325ULL;
};

StreamDigest signing_stream_digest(unsigned logn, std::uint64_t key_seed) {
  ChaCha20Prng krng(key_seed);
  const auto kp = falcon::keygen(logn, krng);
  FullRecorder all;
  {
    ChaCha20Prng rng(key_seed ^ 0x5161);
    fpr::ScopedLeakageSink scope(&all);
    (void)falcon::sign(kp.sk, "event stream", rng);
  }
  StreamDigest d;
  d.events = all.events().size();
  for (const auto& ev : all.events()) {
    std::uint8_t b[9] = {static_cast<std::uint8_t>(ev.tag)};
    for (int i = 0; i < 8; ++i) b[1 + i] = static_cast<std::uint8_t>(ev.value >> (8 * i));
    for (const std::uint8_t x : b) {
      d.fnv ^= x;
      d.fnv *= 0x100000001B3ULL;
    }
  }
  return d;
}

TEST(EventStream, Falcon16SigningUnderFullRecorder) {
  const StreamDigest d = signing_stream_digest(4, 0xE5E4);
  EXPECT_EQ(d.events, 21176U);
  EXPECT_EQ(d.fnv, 0x75C4093FB1977D4FULL);
}

TEST(EventStream, Falcon512SigningUnderFullRecorder) {
  const StreamDigest d = signing_stream_digest(9, 0xE5E9);
  EXPECT_EQ(d.events, 1187835U);
  EXPECT_EQ(d.fnv, 0xFF3DC3C76F26D6F2ULL);
}

// Every trigger window of a real signing, as the windowed recorder keeps
// it: four fpr_mul blocks of 17 events, then one fpr_sub and one fpr_add
// of 3 each.
TEST(EventStream, WindowsHold17EventsPerMulAnd3PerAdd) {
  ChaCha20Prng krng(0xE5E5);
  const auto kp = falcon::keygen(4, krng);
  const std::size_t hn = kp.sk.params.n >> 1;
  for (unsigned row = 0; row < 2; ++row) {
    LastWindowRecorder rec(hn, row);
    rec.start_run();
    {
      ChaCha20Prng rng(0x5162 + row);
      fpr::ScopedLeakageSink scope(&rec);
      (void)falcon::sign(kp.sk, "windows", rng);
    }
    for (std::size_t s = 0; s < hn; ++s) {
      const auto& w = rec.window(s);
      ASSERT_EQ(w.size(), window::kEventsPerWindow) << "row " << row << " slot " << s;
      for (unsigned m = 0; m < 4; ++m) {
        EXPECT_EQ(w[window::mul_base(m) + window::kOffSign].tag, LeakageTag::kMulSign);
        EXPECT_EQ(w[window::mul_base(m) + window::kOffResult].tag, LeakageTag::kMulResult);
      }
      for (unsigned a = 0; a < 2; ++a) {
        const std::size_t base = 4 * window::kEventsPerMul + a * window::kEventsPerAdd;
        EXPECT_EQ(w[base].tag, LeakageTag::kAddAlignShift);
        EXPECT_EQ(w[base + 1].tag, LeakageTag::kAddMantSum);
        EXPECT_EQ(w[base + 2].tag, LeakageTag::kAddResult);
      }
    }
  }
}

// --- signatures and recorded windows: fixed-seed bytes, pinned -----------
//
// FNV-1a 64 over the salt and s2 of every signature, and over (tag,
// value) of every LastWindowRecorder window, for a run of queries on the
// victim key (rows alternate per query). Recorded before the signer's
// allocation-free ffSampling, zero-operand closed forms, run squeeze and
// batched sampler draws (DESIGN.md section 24): none of them may move a
// byte of a signature or of a captured window.

struct SignDigest {
  std::uint64_t sigs = 0xCBF29CE484222325ULL;
  std::uint64_t windows = 0xCBF29CE484222325ULL;
  std::size_t events = 0;
};

void fnv_bytes(std::uint64_t& h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
}

SignDigest sign_run_digest(unsigned logn, std::size_t queries) {
  ChaCha20Prng krng("victim key seed");
  const auto kp = falcon::keygen(logn, krng);
  const std::size_t hn = kp.sk.params.n >> 1;
  ChaCha20Prng rng(0x516E0 + logn);
  SignDigest d;
  for (std::size_t q = 0; q < queries; ++q) {
    LastWindowRecorder rec(hn, static_cast<unsigned>(q & 1));
    rec.start_run();
    falcon::Signature sig;
    {
      fpr::ScopedLeakageSink scope(&rec);
      sig = falcon::sign(kp.sk, "pin-" + std::to_string(q), rng);
    }
    fnv_bytes(d.sigs, sig.salt, sizeof sig.salt);
    for (const std::int16_t v : sig.s2) {
      const std::uint8_t b[2] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8)};
      fnv_bytes(d.sigs, b, 2);
    }
    for (std::size_t s = 0; s < hn; ++s) {
      for (const auto& ev : rec.window(s)) {
        std::uint8_t b[9] = {static_cast<std::uint8_t>(ev.tag)};
        for (int i = 0; i < 8; ++i) b[1 + i] = static_cast<std::uint8_t>(ev.value >> (8 * i));
        fnv_bytes(d.windows, b, sizeof b);
      }
      d.events += rec.window(s).size();
    }
  }
  return d;
}

TEST(Sign, BytesPinnedToParent) {
  const SignDigest d16 = sign_run_digest(4, 64);
  EXPECT_EQ(d16.events, 64U * 8 * window::kEventsPerWindow);
  EXPECT_EQ(d16.sigs, 0xBBC47F3CC0F570DFULL);
  EXPECT_EQ(d16.windows, 0x804D4A7A698B46F2ULL);
  const SignDigest d512 = sign_run_digest(9, 8);
  EXPECT_EQ(d512.events, 8U * 256 * window::kEventsPerWindow);
  EXPECT_EQ(d512.sigs, 0xE0CA16422171A061ULL);
  EXPECT_EQ(d512.windows, 0xAFC7BF538182167EULL);
}

// --- the recorder tape -------------------------------------------------------

void drive_window(LastWindowRecorder& rec, std::uint64_t slot, std::uint64_t first,
                  std::size_t events) {
  rec.on_event({LeakageTag::kTriggerBegin, slot});
  for (std::size_t i = 0; i < events; ++i) rec.on_event({LeakageTag::kMulProdLL, first + i});
  rec.on_event({LeakageTag::kTriggerEnd, slot});
}

void expect_window(const LastWindowRecorder& rec, std::size_t slot, std::uint64_t first,
                   std::size_t events) {
  const auto w = rec.window(slot);
  ASSERT_EQ(w.size(), events) << "slot " << slot;
  for (std::size_t i = 0; i < events; ++i) {
    ASSERT_EQ(w[i].tag, LeakageTag::kMulProdLL) << "slot " << slot << " event " << i;
    ASSERT_EQ(w[i].value, first + i) << "slot " << slot << " event " << i;
  }
}

TEST(LastWindowRecorder, LongWindowComesBackWhole) {
  // The tape starts at kEventsPerWindow events per slot; a 300-event
  // window after two full ones grows it, and moves no earlier window.
  LastWindowRecorder rec(3);
  rec.start_run();
  drive_window(rec, 0, 1000, window::kEventsPerWindow);
  drive_window(rec, 1, 2000, window::kEventsPerWindow);
  drive_window(rec, 2, 3000, 300);
  expect_window(rec, 0, 1000, window::kEventsPerWindow);
  expect_window(rec, 1, 2000, window::kEventsPerWindow);
  expect_window(rec, 2, 3000, 300);
}

TEST(LastWindowRecorder, RetriggeredSlotKeepsOnlyItsLastWindow) {
  // The full signer's salt retry: the slot's row-0 window comes twice
  // (with a row-1 occurrence between), and only the second is kept.
  LastWindowRecorder rec(2, /*row=*/0);
  rec.start_run();
  drive_window(rec, 0, 100, 5);  // occurrence 0: row 0
  drive_window(rec, 1, 200, 4);
  drive_window(rec, 0, 300, 6);  // occurrence 1: row 1, not recorded
  drive_window(rec, 0, 400, 3);  // occurrence 2: row 0 again
  expect_window(rec, 0, 400, 3);
  expect_window(rec, 1, 200, 4);
}

TEST(LastWindowRecorder, StartRunClearsTheTape) {
  LastWindowRecorder rec(2);
  rec.start_run();
  drive_window(rec, 0, 10, 7);
  drive_window(rec, 1, 20, 8);
  rec.start_run();
  EXPECT_TRUE(rec.window(0).empty());
  EXPECT_TRUE(rec.window(1).empty());
  drive_window(rec, 1, 30, 2);
  EXPECT_TRUE(rec.window(0).empty());
  expect_window(rec, 1, 30, 2);
}

// The recorder as it was before the tape: one vector per slot, cleared
// when its row's occurrence begins.
class PerSlotRecorder final : public fpr::LeakageSink {
 public:
  PerSlotRecorder(std::size_t num_slots, unsigned row)
      : LeakageSink(Windowed{}), row_(row), windows_(num_slots), occurrence_(num_slots, 0) {}
  void on_event(LeakageEvent ev) override {
    if (ev.tag == LeakageTag::kTriggerBegin) {
      const auto slot = static_cast<std::size_t>(ev.value);
      if (slot < windows_.size()) {
        recording_ = (occurrence_[slot]++ % 2) == row_;
        if (recording_) {
          current_ = slot;
          windows_[slot].clear();
        }
        set_window_open(recording_);
      }
      return;
    }
    if (ev.tag == LeakageTag::kTriggerEnd) {
      recording_ = false;
      set_window_open(false);
      return;
    }
    if (recording_) windows_[current_].push_back(ev);
  }
  [[nodiscard]] const std::vector<LeakageEvent>& window(std::size_t slot) const {
    return windows_[slot];
  }

 private:
  unsigned row_;
  std::vector<std::vector<LeakageEvent>> windows_;
  std::vector<unsigned> occurrence_;
  std::size_t current_ = 0;
  bool recording_ = false;
};

TEST(LastWindowRecorder, FullSignerWindowsMatchPerSlotRecorder) {
  // One tape recorder reused over every query, against a fresh per-slot
  // recorder per query, under the full signer (both rows, and whatever
  // salt retries the fixed seeds hit).
  for (const unsigned logn : {4U, 9U}) {
    ChaCha20Prng krng("victim key seed");
    const auto kp = falcon::keygen(logn, krng);
    const std::size_t hn = kp.sk.params.n >> 1;
    const std::size_t queries = logn == 4 ? 48 : 4;
    for (unsigned row = 0; row < 2; ++row) {
      LastWindowRecorder tape(hn, row);
      for (std::size_t q = 0; q < queries; ++q) {
        const std::string msg = "tape-" + std::to_string(q);
        const std::uint64_t seed = 0x7A9E + 2 * q + row;
        PerSlotRecorder want(hn, row);
        {
          ChaCha20Prng rng(seed);
          fpr::ScopedLeakageSink scope(&want);
          (void)falcon::sign(kp.sk, msg, rng);
        }
        tape.start_run();
        {
          ChaCha20Prng rng(seed);
          fpr::ScopedLeakageSink scope(&tape);
          (void)falcon::sign(kp.sk, msg, rng);
        }
        const std::string where = "logn " + std::to_string(logn) + " row " +
                                  std::to_string(row) + " query " + std::to_string(q);
        for (std::size_t s = 0; s < hn; ++s) {
          ASSERT_EQ(tape.window(s).size(), window::kEventsPerWindow) << where;
          expect_same_events(tape.window(s), want.window(s), where + " slot " + std::to_string(s));
        }
      }
    }
  }
}

TEST(GatedCapture, RecordersAreWindowedFullRecorderIsNot) {
  EXPECT_TRUE(LastWindowRecorder(4).windowed());
  EXPECT_TRUE(EventWindowRecorder(0).windowed());
  EXPECT_FALSE(FullRecorder().windowed());
}

// --- golden archives: fixed-seed capture bytes, pinned --------------------
//
// FNV-1a 64 and size of the whole archive file for six fixed-seed
// captures. Any capture or codec change that alters one byte of a
// captured or merged archive fails here; the gated windows, block
// keystream and bulk codec (DESIGN.md §18) must not. Re-recorded once
// for the per-query streams, capture signer and ziggurat noise of
// DESIGN.md §25 (sizes and record counts unchanged).

struct Digest {
  std::uint64_t fnv = 0xCBF29CE484222325ULL;
  std::size_t bytes = 0;
};

Digest file_digest(const std::string& path) {
  Digest d;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return d;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      d.fnv ^= buf[i];
      d.fnv *= 0x100000001B3ULL;
    }
    d.bytes += n;
  }
  std::fclose(f);
  return d;
}

struct GoldenFile {
  explicit GoldenFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~GoldenFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(GoldenArchive, Logn4FiftyQueries) {
  ChaCha20Prng rng(0x601D4);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 50;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0x601D;
  GoldenFile out("golden_logn4.fdtrace");
  const auto r = run_campaign_to_archive(kp.sk, cfg, out.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 400U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 128192U);
  EXPECT_EQ(d.fnv, 0xC840DFFBAE9E8E81ULL);
}

TEST(GoldenArchive, Logn9FourQueries) {
  ChaCha20Prng rng(0x601D9);
  const auto kp = falcon::keygen(9, rng);
  CampaignConfig cfg;
  cfg.num_traces = 4;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0x6019;
  GoldenFile out("golden_logn9.fdtrace");
  const auto r = run_campaign_to_archive(kp.sk, cfg, out.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 1024U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 328016U);
  EXPECT_EQ(d.fnv, 0x41F8838A5A972299ULL);
}

TEST(GoldenArchive, MaskedSignerRow1) {
  ChaCha20Prng rng(0x601DA);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 20;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0x601A;
  cfg.row = 1;
  cfg.masked = true;
  GoldenFile out("golden_masked.fdtrace");
  const auto r = run_campaign_to_archive(kp.sk, cfg, out.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 160U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 51328U);
  EXPECT_EQ(d.fnv, 0x5523A49021F2852AULL);
}

TEST(GoldenArchive, FaultPlanShardedMerge) {
  // Three shards merged, with dropped, desynced, clipped and glitched
  // queries and chunk damage applied to the merged file.
  ChaCha20Prng rng(0x601DF);
  const auto kp = falcon::keygen(4, rng);
  ShardedCampaignConfig sc;
  sc.base.num_traces = 40;
  sc.base.device.noise_sigma = 2.0;
  sc.base.seed = 0x601F;
  sc.num_shards = 3;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("drop=0.12,desync=0.06,sat=0.03,glitch=0.01,chunk=0.05",
                               sc.base.faults, &error))
      << error;
  GoldenFile out("golden_faults.fdtrace");
  const auto r = run_campaign_sharded(kp.sk, sc, out.path, nullptr, /*traces_per_chunk=*/16);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 272U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 87392U);
  EXPECT_EQ(d.fnv, 0x7815FACF3ED793C0ULL);
}

TEST(GoldenArchive, JitteredTwoSamplesPerEvent) {
  // Jitter draws a uniform before each window's Gaussians, and two
  // samples per event widen the window: the draw order and the
  // per-sample float arithmetic are pinned here.
  ChaCha20Prng rng(0x601DB);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 30;
  cfg.device.noise_sigma = 2.0;
  cfg.device.samples_per_event = 2;
  cfg.device.jitter_max = 5;
  cfg.seed = 0x601B;
  GoldenFile out("golden_jitter.fdtrace");
  const auto r = run_campaign_to_archive(kp.sk, cfg, out.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 240U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 152784U);
  EXPECT_EQ(d.fnv, 0xB4C927B1F3566B3DULL);
}

TEST(GoldenArchive, ConstantWeight) {
  ChaCha20Prng rng(0x601DC);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 30;
  cfg.device.noise_sigma = 2.0;
  cfg.device.constant_weight = true;
  cfg.seed = 0x601C;
  GoldenFile out("golden_constant.fdtrace");
  const auto r = run_campaign_to_archive(kp.sk, cfg, out.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 240U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 76944U);
  EXPECT_EQ(d.fnv, 0x3E8F1841518132EFULL);
}

// --- the capture signer: the full signer's salt and windows, sooner --------
//
// On the per-query victim streams of a campaign (DESIGN.md section 25),
// falcon::sign_capture must leave the recorder exactly what the full
// signer leaves: same salt, same window of every slot, for both rows and
// for the plain and the masked targets.

void expect_capture_matches_full(unsigned logn, std::size_t queries, bool masked) {
  ChaCha20Prng krng("victim key seed");
  const auto kp = falcon::keygen(logn, krng);
  const std::size_t hn = kp.sk.params.n >> 1;
  const auto full = masked ? &falcon::sign_masked : &falcon::sign;
  for (std::size_t d = 0; d < queries; ++d) {
    const std::string msg = "trace-" + std::to_string(d);
    const std::uint64_t stream = exec::split_seed(std::uint64_t{0xCA9} ^ 0x5167, d);
    for (unsigned row = 0; row < 2; ++row) {
      LastWindowRecorder want(hn, row), got(hn, row);
      want.start_run();
      got.start_run();
      falcon::Signature sig_full, sig_capture;
      {
        ChaCha20Prng rng(stream);
        fpr::ScopedLeakageSink scope(&want);
        sig_full = full(kp.sk, msg, rng);
      }
      {
        ChaCha20Prng rng(stream);
        fpr::ScopedLeakageSink scope(&got);
        sig_capture = falcon::sign_capture(kp.sk, msg, rng, masked);
      }
      const std::string where = "logn " + std::to_string(logn) + " query " +
                                std::to_string(d) + " row " + std::to_string(row);
      ASSERT_TRUE(std::equal(std::begin(sig_full.salt), std::end(sig_full.salt),
                             std::begin(sig_capture.salt)))
          << where;
      EXPECT_TRUE(sig_capture.s2.empty()) << where;
      for (std::size_t s = 0; s < hn; ++s) {
        ASSERT_EQ(got.window(s).size(), window::kEventsPerWindow) << where;
        expect_same_events(got.window(s), want.window(s), where + " slot " + std::to_string(s));
      }
    }
  }
}

TEST(CaptureSigner, PlainWindowsMatchFullSigner) {
  expect_capture_matches_full(4, 64, false);
  expect_capture_matches_full(9, 8, false);
}

TEST(CaptureSigner, MaskedWindowsMatchFullSigner) {
  expect_capture_matches_full(4, 64, true);
  expect_capture_matches_full(9, 8, true);
}

// A dropped query is never run, and no query's bytes depend on another:
// every record a faulted capture keeps equals the pristine capture's
// record of the same query and slot.
TEST(CaptureSigner, DroppedQueriesLeaveLaterQueriesUnchanged) {
  ChaCha20Prng krng(0xD40F);
  const auto kp = falcon::keygen(4, krng);
  CampaignConfig cfg;
  cfg.num_traces = 40;
  cfg.device.noise_sigma = 2.0;
  cfg.device.jitter_max = 3;
  cfg.seed = 0xD40F;
  GoldenFile pristine("drop_pristine.fdtrace");
  ASSERT_TRUE(run_campaign_to_archive(kp.sk, cfg, pristine.path).ok);
  cfg.faults.drop_rate = 0.3;
  GoldenFile dropped("drop_faulted.fdtrace");
  ASSERT_TRUE(run_campaign_to_archive(kp.sk, cfg, dropped.path).ok);

  const auto read_all = [](const std::string& path) {
    tracestore::ArchiveReader reader;
    EXPECT_TRUE(reader.open(path)) << reader.error();
    std::vector<tracestore::TraceRecord> recs;
    tracestore::TraceRecord rec;
    while (reader.next(rec)) recs.push_back(rec);
    return recs;
  };
  const auto all = read_all(pristine.path);
  const auto kept = read_all(dropped.path);
  const std::size_t hn = kp.sk.params.n >> 1;
  ASSERT_EQ(all.size(), cfg.num_traces * hn);
  ASSERT_LT(kept.size(), all.size()) << "no query was dropped";
  std::vector<bool> present(cfg.num_traces, false);
  for (const auto& r : kept) {
    ASSERT_LT(r.index, cfg.num_traces);
    present[r.index] = true;
    const auto& want = all[r.index * hn + r.slot];
    ASSERT_EQ(want.index, r.index);
    ASSERT_EQ(want.slot, r.slot);
    EXPECT_EQ(r.known_re_bits, want.known_re_bits) << "query " << r.index;
    EXPECT_EQ(r.known_im_bits, want.known_im_bits) << "query " << r.index;
    EXPECT_EQ(r.samples, want.samples) << "query " << r.index << " slot " << r.slot;
  }
  bool dropped_then_kept = false;
  for (std::size_t d = 0; d + 1 < cfg.num_traces; ++d) {
    dropped_then_kept = dropped_then_kept || (!present[d] && present[d + 1]);
  }
  EXPECT_TRUE(dropped_then_kept);
}

}  // namespace
}  // namespace fd::sca
