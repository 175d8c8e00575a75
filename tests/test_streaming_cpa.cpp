// Capture-once/attack-many equivalence: a seeded campaign streamed to
// an .fdtrace archive and re-read through ArchiveReader must reproduce
// the in-memory pipeline exactly -- same traces, same recovered
// component, a merged archive equal to its shards in order -- with
// reader memory bounded by the chunk size rather than the campaign
// size. Also the in-memory CPA fold's checked spec errors.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/parallel_attack.h"
#include "attack/streaming_cpa.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd::attack {
namespace {

using fpr::Fpr;

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

sca::CampaignConfig small_config(std::uint64_t seed) {
  sca::CampaignConfig cfg;
  cfg.num_traces = 220;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = seed;
  return cfg;
}

StreamingCpaSpec exponent_spec() {
  StreamingCpaSpec spec;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const KnownOperand& k) {
    return hyp_exponent(guess, k);
  };
  return spec;
}

TEST(StreamingCpa, ArchiveReproducesInMemoryCampaignBitExactly) {
  ChaCha20Prng rng(0xC0FE);
  const auto kp = falcon::keygen(4, rng);
  const auto cfg = small_config(0xC0FE);

  const auto sets = sca::run_full_campaign(kp.sk, cfg);

  TempFile tmp("sc_campaign.fdtrace");
  const auto res = sca::run_campaign_to_archive(kp.sk, cfg, tmp.path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.queries, cfg.num_traces);
  EXPECT_EQ(res.records, cfg.num_traces * (kp.sk.params.n >> 1));

  tracestore::ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path)) << reader.error();
  EXPECT_EQ(reader.meta().logn, 4U);
  EXPECT_EQ(reader.meta().seed, cfg.seed);

  std::vector<std::size_t> slots(sets.size());
  for (std::size_t s = 0; s < slots.size(); ++s) slots[s] = s;
  std::vector<sca::TraceSet> loaded;
  ASSERT_TRUE(sca::load_trace_sets_for(reader, slots, loaded));
  ASSERT_EQ(loaded.size(), sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    ASSERT_EQ(loaded[s].traces.size(), sets[s].traces.size()) << "slot " << s;
    for (std::size_t t = 0; t < sets[s].traces.size(); ++t) {
      const auto& mem = sets[s].traces[t];
      const auto& disk = loaded[s].traces[t];
      EXPECT_EQ(disk.known_re.bits(), mem.known_re.bits());
      EXPECT_EQ(disk.known_im.bits(), mem.known_im.bits());
      ASSERT_EQ(disk.trace.samples.size(), mem.trace.samples.size());
      for (std::size_t i = 0; i < mem.trace.samples.size(); ++i) {
        EXPECT_EQ(disk.trace.samples[i], mem.trace.samples[i]);  // bit-exact floats
      }
    }
  }
}

TEST(StreamingCpa, StreamedComponentAttackMatchesInMemory) {
  ChaCha20Prng rng(0xC100);
  const auto kp = falcon::keygen(4, rng);
  auto cfg = small_config(0xC100);
  cfg.num_traces = 500;

  const std::size_t slot = 3;
  TempFile tmp("sc_component.fdtrace");
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg, tmp.path).ok);

  const auto sets = sca::run_full_campaign(kp.sk, cfg);

  const auto config_for = [&](const ComponentIndex& ci) {
    const KnownOperand split = KnownOperand::from(kp.sk.b01[ci.idx]);
    ComponentAttackConfig cac;
    cac.low_candidates = MantissaCandidates::adversarial(split.y0, false, 100, 21);
    cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 100, 22);
    return cac;
  };
  const std::size_t hn = kp.sk.params.n / 2;
  const std::vector<std::size_t> components = {slot, slot + hn};
  std::vector<ComponentResult> results;
  std::vector<std::size_t> accepted;
  std::string err;
  ASSERT_TRUE(attack_components_gated(tmp.path, QualityConfig{}, config_for, nullptr,
                                      components, results, accepted, nullptr, &err))
      << err;

  for (const bool imag : {false, true}) {
    const Fpr truth = kp.sk.b01[slot + (imag ? hn : 0)];
    const KnownOperand split = KnownOperand::from(truth);
    const ComponentAttackConfig cac = config_for(component_index(slot + (imag ? hn : 0), hn));

    const ComponentDataset mem_ds = build_component_dataset(sets[slot], imag);
    const ComponentResult mem = attack_component(mem_ds, cac);

    const ComponentResult& disk = results[slot + (imag ? hn : 0)];

    EXPECT_EQ(disk.bits, mem.bits) << "imag=" << imag;
    EXPECT_EQ(disk.sign, mem.sign);
    EXPECT_EQ(disk.exponent, mem.exponent);
    EXPECT_EQ(disk.x0, mem.x0);
    EXPECT_EQ(disk.x1, mem.x1);
    // The archive path recovers the real component, not just the same
    // answer: mantissa and sign must match the victim's secret.
    EXPECT_EQ(disk.sign, truth.sign()) << "imag=" << imag;
    EXPECT_EQ(disk.x0, split.y0) << "imag=" << imag;
    EXPECT_EQ(disk.x1, split.y1) << "imag=" << imag;
  }
}

// A spec the fold cannot run is rejected in every build mode.
TEST(StreamingCpa, RejectsSpecWithoutGuesses) {
  auto spec = exponent_spec();
  spec.guesses.clear();
  EXPECT_THROW((void)run_cpa_inmemory(sca::TraceSet{}, spec), std::invalid_argument);
}

TEST(StreamingCpa, RejectsSpecWithoutSampleOffsets) {
  auto spec = exponent_spec();
  spec.sample_offsets.clear();
  EXPECT_THROW((void)run_cpa_inmemory(sca::TraceSet{}, spec), std::invalid_argument);
}

TEST(StreamingCpa, RejectsSpecWithoutModel) {
  auto spec = exponent_spec();
  spec.model = nullptr;
  EXPECT_THROW((void)run_cpa_inmemory(sca::TraceSet{}, spec), std::invalid_argument);
}

TEST(StreamingCpa, ReaderMemoryIndependentOfCampaignSize) {
  ChaCha20Prng rng(0xC200);
  const auto kp = falcon::keygen(4, rng);

  std::size_t residents[2];
  const std::size_t sizes[2] = {40, 200};
  for (int i = 0; i < 2; ++i) {
    auto cfg = small_config(0xC200);
    cfg.num_traces = sizes[i];
    TempFile tmp("sc_bounded_" + std::to_string(i) + ".fdtrace");
    ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg, tmp.path, /*traces_per_chunk=*/32).ok);
    tracestore::ArchiveReader reader;
    ASSERT_TRUE(reader.open(tmp.path));
    tracestore::TraceRecord rec;
    std::size_t records = 0;
    while (reader.next(rec)) ++records;
    EXPECT_EQ(records, sizes[i] * (kp.sk.params.n >> 1));
    residents[i] = reader.max_resident_records();
    EXPECT_LE(residents[i], 32U);
  }
  // 5x the traces, same peak resident decode buffer.
  EXPECT_EQ(residents[0], residents[1]);
}

TEST(StreamingCpa, MergedShardsMatchConcatenatedInMemoryCampaigns) {
  ChaCha20Prng rng(0xC300);
  const auto kp = falcon::keygen(4, rng);
  auto cfg_a = small_config(0xAA);
  cfg_a.num_traces = 120;
  auto cfg_b = small_config(0xBB);
  cfg_b.num_traces = 80;

  TempFile shard_a("sc_shard_a.fdtrace");
  TempFile shard_b("sc_shard_b.fdtrace");
  TempFile merged("sc_merged.fdtrace");
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg_a, shard_a.path).ok);
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg_b, shard_b.path).ok);
  const std::string inputs[2] = {shard_a.path, shard_b.path};
  std::string error;
  ASSERT_TRUE(tracestore::merge_archives(inputs, merged.path, &error)) << error;

  tracestore::ArchiveReader reader;
  ASSERT_TRUE(reader.open(merged.path));
  tracestore::TraceRecord rec;
  std::size_t n = 0;
  while (reader.next(rec)) ++n;
  EXPECT_EQ(n, (cfg_a.num_traces + cfg_b.num_traces) * (kp.sk.params.n >> 1));

  // The merged archive holds shard A's traces followed by shard B's,
  // bit for bit, in order.
  const auto sets_a = sca::run_full_campaign(kp.sk, cfg_a);
  const auto sets_b = sca::run_full_campaign(kp.sk, cfg_b);
  std::vector<std::size_t> slots(sets_a.size());
  for (std::size_t s = 0; s < slots.size(); ++s) slots[s] = s;
  std::vector<sca::TraceSet> loaded;
  ASSERT_TRUE(sca::load_trace_sets_for(reader, slots, loaded));
  ASSERT_EQ(loaded.size(), sets_a.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::vector<sca::CapturedTrace> joined = sets_a[s].traces;
    joined.insert(joined.end(), sets_b[s].traces.begin(), sets_b[s].traces.end());
    ASSERT_EQ(loaded[s].traces.size(), joined.size()) << "slot " << s;
    for (std::size_t t = 0; t < joined.size(); ++t) {
      EXPECT_EQ(loaded[s].traces[t].known_re.bits(), joined[t].known_re.bits());
      EXPECT_EQ(loaded[s].traces[t].known_im.bits(), joined[t].known_im.bits());
      EXPECT_EQ(loaded[s].traces[t].trace.samples, joined[t].trace.samples)
          << "slot " << s << " trace " << t;
    }
  }

  // CPA over the merged slot attacks: the true exponent clears the
  // paper's 99.99% confidence bound (exact resolution of its alias tie
  // class is key recovery's job).
  const std::size_t slot = 1;
  const CpaEngine eng = run_cpa_inmemory(loaded[slot], exponent_spec());
  const unsigned truth = kp.sk.b01[slot].biased_exponent();
  EXPECT_GT(eng.peak(truth - 1005), confidence_interval(0.9999, eng.num_traces()));
}

}  // namespace
}  // namespace fd::attack
