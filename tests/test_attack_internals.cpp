// Attack-layer internals: device self-calibration, streaming-scan
// properties and shape errors, candidate generation edge cases, dataset
// truncation and ownership.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "attack/extend_prune.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"

namespace fd::attack {
namespace {

sca::TraceSet small_campaign(double noise, std::uint64_t seed, std::size_t traces = 400) {
  ChaCha20Prng rng(seed);
  const auto kp = falcon::keygen(4, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = traces;
  cfg.device.noise_sigma = noise;
  cfg.seed = seed;
  return sca::run_signing_campaign(kp.sk, 0, cfg);
}

TEST(Calibration, RecoversUnitGainZeroOffset) {
  const auto set = small_campaign(2.0, 0xAA01);
  const auto ds = build_component_dataset(set, false);
  const LinearCalibration cal = calibrate_device(ds);
  EXPECT_NEAR(cal.alpha, 1.0, 0.05);
  EXPECT_NEAR(cal.beta, 0.0, 1.0);
}

TEST(Calibration, DetectsScaledDevice) {
  ChaCha20Prng rng(0xAA02);
  const auto kp = falcon::keygen(4, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = 400;
  cfg.device.alpha = 2.5;
  cfg.device.noise_sigma = 1.0;
  cfg.seed = 0xAA02;
  const auto set = sca::run_signing_campaign(kp.sk, 0, cfg);
  const auto ds = build_component_dataset(set, false);
  const LinearCalibration cal = calibrate_device(ds);
  EXPECT_NEAR(cal.alpha, 2.5, 0.1);
}

TEST(Calibration, ConstantWeightGivesZeroGain) {
  ChaCha20Prng rng(0xAA03);
  const auto kp = falcon::keygen(4, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = 300;
  cfg.device.constant_weight = true;
  cfg.device.noise_sigma = 1.0;
  cfg.seed = 0xAA03;
  const auto set = sca::run_signing_campaign(kp.sk, 0, cfg);
  const auto ds = build_component_dataset(set, false);
  const LinearCalibration cal = calibrate_device(ds);
  EXPECT_NEAR(cal.alpha, 0.0, 0.05);
}

TEST(StreamingScan, TopKOrderingAndSize) {
  ChaCha20Prng rng(0xAA04);
  std::vector<float> col(500);
  std::vector<std::uint32_t> known(500);
  for (std::size_t i = 0; i < col.size(); ++i) {
    known[i] = static_cast<std::uint32_t>(rng.next_u64());
    col[i] = static_cast<float>(std::popcount(known[i] * 777U)) +
             0.5F * static_cast<float>(rng.gaussian());
  }
  StreamingScan scan({col});
  const auto model = [&](std::uint32_t g, std::size_t t, std::size_t) {
    return static_cast<double>(std::popcount(known[t] * g));
  };
  const auto top = scan.top_k(700, 800, model, 10);
  ASSERT_EQ(top.size(), 10U);
  EXPECT_EQ(top[0].guess, 777U);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].score, top[i - 1].score);  // descending
  }
  // keep > space size clamps.
  const auto all = scan.top_k(700, 705, model, 10);
  EXPECT_EQ(all.size(), 5U);
}

TEST(StreamingScan, ScoreOneMatchesTopK) {
  ChaCha20Prng rng(0xAA05);
  std::vector<float> col(200);
  std::vector<std::uint32_t> known(200);
  for (std::size_t i = 0; i < col.size(); ++i) {
    known[i] = static_cast<std::uint32_t>(rng.next_u64());
    col[i] = static_cast<float>(std::popcount(known[i]));
  }
  StreamingScan scan({col});
  const auto model = [&](std::uint32_t g, std::size_t t, std::size_t) {
    return static_cast<double>(std::popcount(known[t] ^ g));
  };
  const std::uint32_t guesses[3] = {0, 0xFFFFFFFF, 0x12345678};
  const auto top = scan.top_k_list(guesses, model, 3);
  for (const auto& s : top) {
    EXPECT_DOUBLE_EQ(scan.score_one(s.guess, model), s.score);
  }
  // XOR with all-ones flips every bit: perfect anti-correlation.
  EXPECT_NEAR(scan.score_one(0xFFFFFFFFU, model), -1.0, 1e-9);
  EXPECT_NEAR(scan.score_one(0U, model), 1.0, 1e-9);
}

TEST(Candidates, TruthWithNoShiftsStillPresent) {
  // An odd value with the top bit set has no exact shifts in range.
  const std::uint32_t truth = (1U << 24) | 1U;
  const auto cands = MantissaCandidates::adversarial(truth, false, 20, 9);
  EXPECT_NE(std::find(cands.begin(), cands.end(), truth), cands.end());
}

TEST(Candidates, Deterministic) {
  const auto a = MantissaCandidates::adversarial(0x123456, false, 50, 42);
  const auto b = MantissaCandidates::adversarial(0x123456, false, 50, 42);
  EXPECT_EQ(a, b);
  const auto c = MantissaCandidates::adversarial(0x123456, false, 50, 43);
  EXPECT_NE(a, c);
}

// The candidate generator as it was written over a std::set: the sorted
// vector must stop on the same draw and return the same list.
std::vector<std::uint32_t> adversarial_set_reference(std::uint32_t truth, bool high,
                                                     std::size_t random_count,
                                                     std::uint64_t seed) {
  const std::uint32_t lo_bound = high ? (1U << 27) : 0;
  const std::uint32_t hi_bound = high ? (1U << 28) : (1U << 25);
  const auto in_range = [&](std::uint32_t v) { return v >= lo_bound && v < hi_bound; };
  std::set<std::uint32_t> cand;
  const auto add_shift_family = [&](std::uint32_t v) {
    cand.insert(v);
    for (int k = 1; k <= 6; ++k) {
      const std::uint64_t left = static_cast<std::uint64_t>(v) << k;
      if (left < hi_bound && in_range(static_cast<std::uint32_t>(left))) {
        cand.insert(static_cast<std::uint32_t>(left));
      }
      const std::uint32_t right = v >> k;
      if ((static_cast<std::uint64_t>(right) << k) == v && in_range(right)) cand.insert(right);
    }
  };
  add_shift_family(truth);
  ChaCha20Prng rng(seed);
  while (cand.size() < random_count + 1) {
    add_shift_family(lo_bound + static_cast<std::uint32_t>(rng.uniform(hi_bound - lo_bound)));
  }
  return {cand.begin(), cand.end()};
}

TEST(Candidates, SortedVectorMatchesSetReference) {
  const std::size_t counts[] = {0, 1, 7, 150, 400};
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    for (const bool high : {false, true}) {
      ChaCha20Prng pick(seed * 2 + (high ? 1 : 0));
      // Truths with long shift families (trailing zeros) and without.
      std::uint32_t truth = high ? (1U << 27) | static_cast<std::uint32_t>(pick.uniform(1U << 27))
                                 : static_cast<std::uint32_t>(pick.uniform(1U << 25));
      if (seed % 3 == 0) truth &= ~0x7FU;
      if (truth == 0) truth = 1;
      const std::size_t count = counts[seed % std::size(counts)];
      ASSERT_EQ(MantissaCandidates::adversarial(truth, high, count, seed),
                adversarial_set_reference(truth, high, count, seed))
          << "seed " << seed << (high ? " high" : " low");
    }
  }
}

TEST(Dataset, TruncationLimitsTraces) {
  const auto set = small_campaign(1.0, 0xAA06, 50);
  const auto full = build_component_dataset(set, false);
  const auto part = build_component_dataset(set, false, 20);
  EXPECT_EQ(full.num_traces, 50U);
  EXPECT_EQ(part.num_traces, 20U);
  for (unsigned v = 0; v < 2; ++v) {
    ASSERT_EQ(part.views[v].known.size(), 20U);
    for (std::size_t t = 0; t < 20; ++t) {
      EXPECT_EQ(part.views[v].samples[0][t], full.views[v].samples[0][t]);
    }
  }
}

TEST(StreamingScan, NoColumnsIsCheckedError) {
  EXPECT_THROW(StreamingScan(std::span<const SampleColumn>{}), std::invalid_argument);
  EXPECT_THROW(StreamingScan(std::vector<std::vector<float>>{}), std::invalid_argument);
}

TEST(StreamingScan, RaggedColumnsIsCheckedError) {
  const std::vector<std::vector<float>> ragged = {std::vector<float>(10, 1.0F),
                                                  std::vector<float>(9, 1.0F)};
  EXPECT_THROW(StreamingScan{ragged}, std::invalid_argument);
  const std::vector<float> a(10, 1.0F);
  const SampleColumn cols[] = {SampleColumn::of(a), {a.data(), 5, 2}};
  EXPECT_THROW(StreamingScan{cols}, std::invalid_argument);
}

TEST(Dataset, MovedDatasetStaysValid) {
  // The extend-bench pattern: a set and its dataset built together in
  // one object, then moved elsewhere while the original goes away.
  struct Input {
    sca::TraceSet set;
    ComponentDataset ds;
  };
  const auto set = small_campaign(1.0, 0xAA08, 60);
  const ComponentDataset ref = build_component_dataset(set, true);
  auto make = [&] {
    Input in;
    in.set = set;
    in.ds = build_component_dataset(in.set, true);
    return in;
  };
  std::unique_ptr<Input> moved;
  {
    Input first = make();
    moved = std::make_unique<Input>(std::move(first));
  }
  Input second;
  second = std::move(*moved);
  moved.reset();
  const ComponentDataset& ds = second.ds;
  ASSERT_EQ(ds.num_traces, ref.num_traces);
  for (unsigned v = 0; v < 2; ++v) {
    for (std::size_t t = 0; t < ds.num_traces; ++t) {
      for (std::size_t off = 0; off < sca::window::kEventsPerMul; ++off) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ds.views[v].samples[off][t]),
                  std::bit_cast<std::uint32_t>(ref.views[v].samples[off][t]));
      }
      const KnownOperand a = ds.views[v].known[t];
      const KnownOperand b = ref.views[v].known[t];
      EXPECT_EQ(a.y0, b.y0);
      EXPECT_EQ(a.y1, b.y1);
      EXPECT_EQ(a.exponent, b.exponent);
      EXPECT_EQ(a.sign, b.sign);
    }
  }
  // A copy shares the storage and outlives the original.
  const ComponentDataset fresh = build_component_dataset(set, false);
  ComponentDataset copy;
  {
    const ComponentDataset original = build_component_dataset(set, false);
    copy = original;
  }
  for (std::size_t t = 0; t < copy.num_traces; ++t) {
    EXPECT_EQ(copy.views[1].samples[sca::window::kOffExpSum][t],
              fresh.views[1].samples[sca::window::kOffExpSum][t]);
  }
}

TEST(Dataset, ShortWindowIsCheckedError) {
  // Four samples per window: the views read 68.
  sca::TraceSet set;
  set.slot = 1;
  set.traces.resize(3);
  for (auto& ct : set.traces) ct.trace.samples.assign(4, 1.0F);
  EXPECT_THROW((void)build_component_dataset(set, false), std::invalid_argument);
  set.traces[0].trace.samples.assign(kDatasetWindowSamples, 1.0F);
  EXPECT_THROW((void)build_component_dataset(set, true), std::invalid_argument);
  // Traces past max_traces are never read, so they are not checked.
  EXPECT_NO_THROW((void)build_component_dataset(set, true, 1));
}

TEST(Confidence, IntervalShrinksWithTraces) {
  EXPECT_GT(confidence_interval(0.9999, 100), confidence_interval(0.9999, 10000));
  EXPECT_NEAR(confidence_interval(0.9999, 10000), 3.8906 / 100.0, 1e-4);
  EXPECT_GT(confidence_z(0.9999), confidence_z(0.99));
}

TEST(Assemble, FieldPacking) {
  EXPECT_EQ(assemble_bits(false, 1023, 1U << 27, 0), 0x3FF0000000000000ULL);
  EXPECT_EQ(assemble_bits(true, 0, 1U << 27, 0), 0x8000000000000000ULL);
  EXPECT_EQ(assemble_bits(false, 1023, (1U << 27) | 1U, 1),
            0x3FF0000002000001ULL);
}

}  // namespace
}  // namespace fd::attack
