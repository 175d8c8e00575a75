// Capture rig and device model: trigger windowing, event schedules,
// leakage-to-trace synthesis, countermeasure knobs, campaign structure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "falcon/falcon.h"
#include "falcon/masked_sign.h"
#include "sca/campaign.h"
#include "sca/capture.h"
#include "sca/device.h"
#include "sca/faults.h"

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

void expect_same_events(const std::vector<LeakageEvent>& got,
                        const std::vector<LeakageEvent>& want, const std::string& where) {
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
void expect_windowed_matches_ungated(const SignerFn& signer, unsigned row) {
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
    EXPECT_EQ(gated.run_attempts(), ref.run_attempts());
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

TEST(GatedCapture, RecordersAreWindowedFullRecorderIsNot) {
  EXPECT_TRUE(LastWindowRecorder(4).windowed());
  EXPECT_TRUE(EventWindowRecorder(0).windowed());
  EXPECT_FALSE(FullRecorder().windowed());
}

// --- golden archives: fixed-seed capture bytes, pinned --------------------
//
// FNV-1a 64 and size of the whole archive file for four fixed-seed
// captures. Any capture or codec change that alters one byte of a
// captured or merged archive fails here; the gated windows, block
// keystream and bulk codec (DESIGN.md §18) must not.

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
  EXPECT_EQ(d.fnv, 0xB40144457E6846ECULL);
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
  EXPECT_EQ(d.fnv, 0x17D441E3C4636A6DULL);
}

TEST(GoldenArchive, MaskedSignerRow1) {
  ChaCha20Prng rng(0x601DA);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 20;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0x601A;
  cfg.row = 1;
  cfg.signer = &falcon::sign_masked;
  GoldenFile out("golden_masked.fdtrace");
  const auto r = run_campaign_to_archive(kp.sk, cfg, out.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 160U);
  const Digest d = file_digest(out.path);
  EXPECT_EQ(d.bytes, 51328U);
  EXPECT_EQ(d.fnv, 0xC1410F6198C3F3ECULL);
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
  EXPECT_EQ(d.fnv, 0x02DEDE5C92EF6134ULL);
}

}  // namespace
}  // namespace fd::sca
