// Robustness layer (DESIGN.md section 10): deterministic fault
// injection, the trace quality gate, adaptive re-measurement, archive
// repair, and checkpoint/resume. The acceptance pins live here:
//
//   - a fault plan with >= 10% dropped + 5% desynced + 2% saturated
//     queries at the bench noise level still recovers f exactly through
//     the adaptive controller, identically at 1 and >1 workers;
//   - a checkpointed run killed mid-attack resumes bit-identically.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/checkpoint.h"
#include "attack/key_recovery.h"
#include "attack/parallel_attack.h"
#include "attack/quality.h"
#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "distinguisher/lr_backend.h"
#include "distinguisher/template_backend.h"
#include "exec/seed_split.h"
#include "exec/thread_pool.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"
#include "sca/faults.h"
#include "tracestore/archive.h"

namespace fd::attack {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { clear(); }
  ~TempFile() { clear(); }
  void clear() const {
    std::remove(path.c_str());
    std::remove((path + ".fdckpt").c_str());
    std::remove((path + ".fdckpt.tmp").c_str());
  }
  std::string path;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

falcon::KeyPair toy_victim(unsigned logn = 3) {
  ChaCha20Prng rng("faults test victim");
  return falcon::keygen(logn, rng);
}

sca::FaultConfig acceptance_faults() {
  sca::FaultConfig fc;
  fc.drop_rate = 0.10;
  fc.desync_rate = 0.05;
  fc.saturate_rate = 0.02;
  return fc;
}

RecoveryPipelineConfig pipeline_config(const std::string& archive, std::size_t threads = 1) {
  RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = 350;
  cfg.attack.device.noise_sigma = 2.0;
  cfg.attack.adversarial_random = 100;
  cfg.attack.seed = 0xFD04;
  cfg.attack.threads = threads;
  cfg.archive_path = archive;
  return cfg;
}

// --- fault plan ------------------------------------------------------------

TEST(FaultPlan, StatelessAndOrderIndependent) {
  sca::FaultConfig fc;
  fc.drop_rate = 0.1;
  fc.desync_rate = 0.08;
  fc.saturate_rate = 0.05;
  fc.seed = 0xABCD;
  const sca::FaultPlan plan(fc);

  std::vector<sca::QueryFault> forward(2000);
  for (std::size_t q = 0; q < forward.size(); ++q) forward[q] = plan.query_fault(q);
  // Same decisions recomputed in reverse order from a second plan object.
  const sca::FaultPlan again(fc);
  for (std::size_t q = forward.size(); q-- > 0;) {
    const auto qf = again.query_fault(q);
    EXPECT_EQ(qf.drop, forward[q].drop);
    EXPECT_EQ(qf.desync, forward[q].desync);
    EXPECT_EQ(qf.saturate, forward[q].saturate);
  }

  std::size_t drops = 0, desyncs = 0, sats = 0;
  for (const auto& qf : forward) {
    drops += qf.drop;
    desyncs += qf.desync != 0;
    sats += qf.saturate;
    if (qf.drop) {  // a missed trigger produces nothing to desync or clip
      EXPECT_EQ(qf.desync, 0U);
      EXPECT_FALSE(qf.saturate);
    }
    if (qf.desync != 0) {
      EXPECT_GE(qf.desync, fc.desync_min);
      EXPECT_LE(qf.desync, fc.desync_max);
    }
  }
  // Rates are honoured within loose tolerance (deterministic, not lucky).
  EXPECT_GT(drops, 120U);
  EXPECT_LT(drops, 300U);
  EXPECT_GT(desyncs, 80U);
  EXPECT_GT(sats, 40U);
}

TEST(FaultPlan, SeedChangesThePlan) {
  sca::FaultConfig a;
  a.drop_rate = 0.2;
  sca::FaultConfig b = a;
  b.seed = a.seed + 1;
  std::size_t differs = 0;
  for (std::size_t q = 0; q < 500; ++q) {
    differs += sca::FaultPlan(a).query_fault(q).drop != sca::FaultPlan(b).query_fault(q).drop;
  }
  EXPECT_GT(differs, 50U);
}

TEST(FaultPlan, ParseSpec) {
  sca::FaultConfig fc;
  std::string err;
  ASSERT_TRUE(sca::parse_fault_plan(
      "drop=0.1,desync=0.05,desync_min=40,desync_max=80,sat=0.02,glitch=0.01,"
      "chunk=0.03,fail=0.25,seed=0xBEEF",
      fc, &err))
      << err;
  EXPECT_DOUBLE_EQ(fc.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(fc.desync_rate, 0.05);
  EXPECT_EQ(fc.desync_min, 40U);
  EXPECT_EQ(fc.desync_max, 80U);
  EXPECT_DOUBLE_EQ(fc.saturate_rate, 0.02);
  EXPECT_DOUBLE_EQ(fc.glitch_rate, 0.01);
  EXPECT_DOUBLE_EQ(fc.chunk_corrupt_rate, 0.03);
  EXPECT_DOUBLE_EQ(fc.capture_fail_rate, 0.25);
  EXPECT_EQ(fc.seed, 0xBEEFULL);

  sca::FaultConfig empty;
  ASSERT_TRUE(sca::parse_fault_plan("", empty, &err));
  EXPECT_FALSE(empty.any());

  EXPECT_FALSE(sca::parse_fault_plan("bogus=1", fc, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(sca::parse_fault_plan("drop=notanumber", fc, &err));
  EXPECT_FALSE(sca::parse_fault_plan("drop", fc, &err));
}

// Sharded faulted capture is byte-identical at any worker count: the
// shard plan (not the pool size) is the experiment's identity, and
// fault decisions key on campaign-global query indices.
TEST(FaultPlan, FaultedShardedCaptureIsByteIdenticalAcrossWorkerCounts) {
  const auto victim = toy_victim();
  sca::ShardedCampaignConfig cfg;
  cfg.base.num_traces = 96;
  cfg.base.device.noise_sigma = 2.0;
  cfg.base.seed = 0x5EED;
  cfg.base.faults.drop_rate = 0.15;
  cfg.base.faults.desync_rate = 0.1;
  cfg.base.faults.saturate_rate = 0.05;
  cfg.base.faults.glitch_rate = 0.02;
  cfg.base.faults.chunk_corrupt_rate = 0.05;
  cfg.num_shards = 3;

  TempFile serial("flt_serial.fdtrace");
  const auto r0 = sca::run_campaign_sharded(victim.sk, cfg, serial.path, nullptr);
  ASSERT_TRUE(r0.ok) << r0.error;
  const auto ref = read_file(serial.path);
  ASSERT_FALSE(ref.empty());

  for (const std::size_t workers : {1UL, 2UL, 7UL}) {
    exec::ThreadPool pool(workers);
    TempFile tmp("flt_w" + std::to_string(workers) + ".fdtrace");
    const auto r = sca::run_campaign_sharded(victim.sk, cfg, tmp.path, &pool);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.queries, r0.queries);
    EXPECT_EQ(r.records, r0.records);
    EXPECT_EQ(read_file(tmp.path), ref) << workers << " workers diverged";
  }
}

// A one-shard capture is written in place: the same bytes as capturing
// the lone shard on its own and merging it, and no shard file left
// behind. The fault plan drops queries, so the record stream has gaps.
TEST(FaultPlan, OneShardCaptureEqualsTheMergedShard) {
  const auto victim = toy_victim();
  sca::ShardedCampaignConfig cfg;
  cfg.base.num_traces = 96;
  cfg.base.device.noise_sigma = 2.0;
  cfg.base.seed = 0x5EED1;
  cfg.base.faults.drop_rate = 0.2;
  cfg.base.faults.desync_rate = 0.1;
  cfg.num_shards = 1;

  TempFile direct("flt_one_shard.fdtrace");
  const auto r = sca::run_campaign_sharded(victim.sk, cfg, direct.path, nullptr);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.queries, 96U);
  EXPECT_LT(r.records, 96U * (victim.sk.params.n >> 1)) << "no query was dropped";
  EXPECT_FALSE(std::ifstream(direct.path + ".shard0").good());

  sca::CampaignConfig shard = cfg.base;
  shard.seed = exec::split_seed(cfg.base.seed, 0);
  TempFile raw("flt_one_shard_raw.fdtrace");
  TempFile merged("flt_one_shard_merged.fdtrace");
  ASSERT_TRUE(sca::run_campaign_to_archive(victim.sk, shard, raw.path).ok);
  const std::string inputs[] = {raw.path};
  std::string err;
  ASSERT_TRUE(tracestore::merge_archives(inputs, merged.path, &err)) << err;
  const auto want = read_file(merged.path);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(read_file(direct.path), want);
  EXPECT_NE(read_file(raw.path), want);  // the merged flag is set
}

// --- quality gate ----------------------------------------------------------

// A synthetic slot: D copies of a positive "signal" shape plus small
// per-trace variation. The per-sample ramp keeps every value distinct --
// real traces carry continuous noise, and the saturation screen keys on
// exact-value collisions, so quantized synthetics would read as clipped.
sca::TraceSet synthetic_set(std::size_t traces, std::size_t samples) {
  sca::TraceSet set;
  set.slot = 0;
  for (std::size_t t = 0; t < traces; ++t) {
    sca::CapturedTrace ct;
    ct.trace.samples.resize(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      ct.trace.samples[i] = 8.0f + 4.0f * static_cast<float>((i * 7 + 3) % 5) +
                            0.03f * static_cast<float>(i) + 0.01f * static_cast<float>(t);
    }
    set.traces.push_back(std::move(ct));
  }
  return set;
}

TEST(QualityGate, DisabledIsBitIdenticalPassThrough) {
  auto set = synthetic_set(8, 32);
  const auto before = set;
  QualityConfig qc;  // enabled = false
  const auto rep = screen_trace_set(set, qc, 4);
  EXPECT_EQ(rep.total, 8U);
  EXPECT_EQ(rep.accepted, 8U);
  ASSERT_EQ(set.traces.size(), before.traces.size());
  for (std::size_t t = 0; t < set.traces.size(); ++t) {
    EXPECT_EQ(set.traces[t].trace.samples, before.traces[t].trace.samples);
  }
}

TEST(QualityGate, RejectsSaturatedTraces) {
  auto set = synthetic_set(10, 40);
  // Clip trace 3 hard: a third of its samples pinned at the max.
  auto& s = set.traces[3].trace.samples;
  for (std::size_t i = 0; i < s.size(); i += 3) s[i] = 30.0f;
  QualityConfig qc;
  qc.enabled = true;
  const auto rep = screen_trace_set(set, qc, 0);
  EXPECT_EQ(rep.total, 10U);
  EXPECT_EQ(rep.rejected_saturated, 1U);
  EXPECT_EQ(rep.accepted, 9U);
  EXPECT_EQ(set.traces.size(), 9U);
}

TEST(QualityGate, RejectsEnergyOutliers) {
  auto set = synthetic_set(12, 40);
  set.traces[5].trace.samples[7] = 500.0f;  // glitch spike
  QualityConfig qc;
  qc.enabled = true;
  const auto rep = screen_trace_set(set, qc, 0);
  EXPECT_EQ(rep.rejected_energy, 1U);
  EXPECT_EQ(rep.accepted, 11U);
}

TEST(QualityGate, RealignsJitteredAndRejectsDesynced) {
  const std::size_t lag_max = 4, window = 28, samples = window + lag_max;
  // Traces carrying the same positive signal at known lags.
  std::vector<float> signal(window);
  for (std::size_t i = 0; i < window; ++i) {
    signal[i] = 6.0f + 3.0f * static_cast<float>((i * 5 + 1) % 7) +
                0.05f * static_cast<float>(i);  // distinct values (see synthetic_set)
  }
  sca::TraceSet set;
  const std::size_t lags[] = {0, 2, 4, 1, 0, 3};
  for (const std::size_t lag : lags) {
    sca::CapturedTrace ct;
    ct.trace.samples.assign(samples, 0.0f);
    for (std::size_t i = 0; i < window; ++i) ct.trace.samples[lag + i] = signal[i];
    set.traces.push_back(std::move(ct));
  }
  // One grossly desynced trace: comparable energy, no matching shape at
  // any admissible lag.
  sca::CapturedTrace bad;
  bad.trace.samples.resize(samples);
  std::uint64_t h = 0x2545F4914F6CDD1DULL;
  for (std::size_t i = 0; i < samples; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    bad.trace.samples[i] = 1.0f + 12.0f * static_cast<float>(h >> 40) * 0x1.0p-24f;
  }
  set.traces.push_back(std::move(bad));

  QualityConfig qc;
  qc.enabled = true;
  qc.energy_mad_k = 1e9;           // isolate the alignment screen
  qc.saturation_min_pinned = 12;   // zero-filled tails are not clipping
  const auto rep = screen_trace_set(set, qc, lag_max);
  EXPECT_EQ(rep.total, 7U);
  EXPECT_EQ(rep.rejected_alignment, 1U);
  EXPECT_EQ(rep.accepted, 6U);
  EXPECT_EQ(rep.realigned, 4U);  // the four nonzero lags

  // Every survivor now carries the signal at lag 0.
  ASSERT_EQ(set.traces.size(), 6U);
  for (const auto& ct : set.traces) {
    for (std::size_t i = 0; i < window; ++i) {
      EXPECT_FLOAT_EQ(ct.trace.samples[i], signal[i]);
    }
  }
}

TEST(QualityGate, ConfidenceCriterion) {
  ComponentResult r;
  r.sign_phase.top = {{0, 0.9}, {1, 0.5}};                  // gap 0.4
  r.low_prune.top = {{10, 0.8}, {11, 0.75}, {12, 0.1}};     // gap 0.05 (decisive min)
  r.high_prune.top = {{20, 0.9}, {21, 0.3}};                // gap 0.6
  r.exp_phase.top = {{30, 0.7}, {31, 0.7}};                 // alias tie, excluded
  ConfidenceConfig cc;
  cc.margin_factor = 1.0;

  const auto c400 = component_confidence(r, 400, cc);
  EXPECT_NEAR(c400.margin, 0.05, 1e-12);
  EXPECT_NEAR(c400.threshold, confidence_interval(cc.confidence, 400), 1e-12);
  EXPECT_FALSE(c400.confident);  // 0.05 < z/sqrt(400) ~ 0.19

  // More traces shrink the interval below the margin.
  const auto c40000 = component_confidence(r, 40000, cc);
  EXPECT_TRUE(c40000.confident);

  // The deflation factor scales the bar, not the margin.
  cc.margin_factor = 0.1;
  EXPECT_TRUE(component_confidence(r, 400, cc).confident);

  // No traces -> never confident.
  EXPECT_FALSE(component_confidence(r, 0, cc).confident);
}

// The countermeasure regression: at jitter_max > 0 the naive column
// extraction smears the leakage and the attack collapses; the gate's
// realignment pass recovers every component from the same traces.
TEST(QualityGate, RealignmentDefeatsJitterThatBreaksTheNaivePath) {
  ChaCha20Prng rng("victim key seed");
  const auto victim = falcon::keygen(3, rng);
  KeyRecoveryConfig atk;
  atk.num_traces = 350;
  atk.device.noise_sigma = 2.0;
  atk.device.jitter_max = 6;
  atk.seed = 0xDE40;
  atk.adversarial_random = 100;

  sca::CampaignConfig camp;
  camp.num_traces = atk.num_traces;
  camp.device = atk.device;
  camp.seed = atk.seed;
  const auto sets = sca::run_full_campaign(victim.sk, camp);
  const std::size_t hn = sets.size(), n = 2 * hn;

  std::size_t naive_correct = 0, gated_correct = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto cix = component_index(idx, hn);
    const auto cfg = component_attack_config(victim.sk, atk, 0, cix.slot, cix.imag);
    const bool truth_bits_match = [&](const sca::TraceSet& set) {
      const auto ds = build_component_dataset(set, cix.imag);
      return attack_component(ds, cfg).bits == victim.sk.b01[idx].bits();
    }(sets[cix.slot]);
    naive_correct += truth_bits_match;

    sca::TraceSet gated = sets[cix.slot];  // the gate mutates in place
    QualityConfig qc;
    qc.enabled = true;
    const auto rep = screen_trace_set(gated, qc, atk.device.jitter_max);
    EXPECT_GT(rep.realigned, rep.total / 2) << "jitter should realign most traces";
    const auto ds = build_component_dataset(gated, cix.imag);
    gated_correct += attack_component(ds, cfg).bits == victim.sk.b01[idx].bits();
  }
  EXPECT_LE(naive_correct, n / 4) << "jitter no longer breaks the naive path";
  EXPECT_EQ(gated_correct, n);
}

// --- archive repair --------------------------------------------------------

TEST(Repair, SalvagesValidChunksAndNamesTheLost) {
  const auto victim = toy_victim();
  sca::CampaignConfig cfg;
  cfg.num_traces = 30;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0x11;

  TempFile in("rep_in.fdtrace");
  TempFile out("rep_out.fdtrace");
  const auto res = sca::run_campaign_to_archive(victim.sk, cfg, in.path, 8);
  ASSERT_TRUE(res.ok) << res.error;
  // logn 3 -> 4 slots/query -> 120 records -> 15 chunks of 8.

  // Flip one payload byte of chunk 1.
  tracestore::VerifyReport vr;
  ASSERT_TRUE(tracestore::verify_archive(in.path, vr));
  const std::size_t chunk_bytes =
      tracestore::kChunkHeaderBytes + 8 * vr.meta.record_bytes();
  const std::size_t victim_off = tracestore::kHeaderBytes + chunk_bytes +
                                 tracestore::kChunkHeaderBytes + 5;
  {
    std::fstream f(in.path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim_off));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(victim_off));
    f.write(&b, 1);
  }
  ASSERT_TRUE(tracestore::verify_archive(in.path, vr));
  ASSERT_EQ(vr.chunks_corrupt, 1U);

  tracestore::RepairReport rep;
  std::string err;
  ASSERT_TRUE(tracestore::repair_archive(in.path, out.path, rep, &err)) << err;
  EXPECT_EQ(rep.chunks_dropped, 1U);
  ASSERT_EQ(rep.dropped_chunks.size(), 1U);
  EXPECT_EQ(rep.dropped_chunks[0], 1U);
  EXPECT_EQ(rep.records_kept, 112U);
  // The lost records are exactly chunk 1's file-order ordinals 8..15.
  std::vector<std::size_t> expect_lost = {8, 9, 10, 11, 12, 13, 14, 15};
  EXPECT_EQ(rep.dropped_record_ordinals, expect_lost);
  EXPECT_FALSE(rep.truncated_tail);

  // The repaired file verifies clean with the surviving records.
  tracestore::VerifyReport vr2;
  ASSERT_TRUE(tracestore::verify_archive(out.path, vr2));
  EXPECT_TRUE(vr2.clean());
  EXPECT_EQ(vr2.records, 112U);
}

// --- checkpoint ------------------------------------------------------------

ComponentResult sample_result(std::uint64_t tag) {
  ComponentResult r;
  r.sign = (tag & 1) != 0;
  r.exponent = 1020 + static_cast<unsigned>(tag % 7);
  r.x0 = static_cast<std::uint32_t>(0x1000000 + tag);
  r.x1 = static_cast<std::uint32_t>(0x8000000 + tag * 3);
  r.bits = 0xBFF0000000000000ULL ^ (tag * 0x9E3779B97F4A7C15ULL);
  r.sign_phase.value = r.sign;
  r.sign_phase.score = 0.75 + 1e-9 * static_cast<double>(tag);
  r.sign_phase.top = {{1, r.sign_phase.score}, {0, 0.2}};
  r.low_prune.value = r.x0;
  r.low_prune.score = 0.91;
  r.low_prune.top = {{r.x0, 0.91}, {r.x0 ^ 5, 0.34}, {7, -0.12}};
  r.high_prune.value = r.x1;
  r.high_prune.top = {{r.x1, 0.88}};
  r.exp_phase.top = {{r.exponent, 0.5}, {r.exponent + 16, 0.5}};
  return r;
}

TEST(ShortWindow, FourSampleArchiveIsAStructuredError) {
  // A well-formed FALCON-4 archive whose windows hold 4 samples: the
  // header passes ArchiveReader::open, but a component's views read the
  // 68 samples of four fpr_mul blocks. The attack must refuse it, never
  // read past a window.
  TempFile archive("faults_short_window.fdtrace");
  tracestore::ArchiveMeta meta;
  meta.logn = 2;
  meta.num_slots = 2;
  meta.samples_per_trace = 4;
  {
    tracestore::ArchiveWriter w;
    ASSERT_TRUE(w.open(archive.path, meta)) << w.error();
    for (std::uint32_t q = 0; q < 20; ++q) {
      for (std::uint32_t slot = 0; slot < 2; ++slot) {
        tracestore::TraceRecord rec;
        rec.slot = slot;
        rec.index = q;
        rec.known_re_bits = fpr::Fpr::from_double(1.5 + q).bits();
        rec.known_im_bits = fpr::Fpr::from_double(-2.25 - q).bits();
        rec.samples = {1.0F, 2.0F, 3.0F, static_cast<float>(q)};
        ASSERT_TRUE(w.append(rec)) << w.error();
      }
    }
    ASSERT_TRUE(w.close());
  }
  const auto config_for = [](const ComponentIndex&) { return ComponentAttackConfig{}; };
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  for (const bool gate_on : {false, true}) {
    QualityConfig gate;
    gate.enabled = gate_on;
    std::vector<ComponentResult> results;
    std::vector<std::size_t> accepted;
    std::string error;
    EXPECT_FALSE(attack_components_gated(archive.path, gate, config_for, nullptr, all, results,
                                         accepted, nullptr, &error));
    EXPECT_NE(error.find("4 samples"), std::string::npos) << error;
  }
  // The TraceSet path refuses the same windows.
  tracestore::ArchiveReader reader;
  ASSERT_TRUE(reader.open(archive.path)) << reader.error();
  std::vector<sca::TraceSet> sets;
  const std::vector<std::size_t> slots = {0, 1};
  ASSERT_TRUE(sca::load_trace_sets_for(reader, slots, sets));
  ASSERT_EQ(sets[1].traces.size(), 20U);
  EXPECT_THROW((void)build_component_dataset(sets[1], true), std::invalid_argument);
}

// A FALCON-16 header patched to a slot count that is not its ring's
// n/2. The attack sizes per-slot vectors from num_slots, so unchecked,
// 0xFFFFFFFF throws bad_alloc and 2^22 allocates and zeroes gigabytes.
// Reader and writer both refuse such a header, the gated attack returns
// an error, and `fd-tracedb verify` exits 2.
TEST(ArchiveHeader, SlotCountOtherThanHalfTheRingIsRefused) {
  TempFile good("faults_ring_good.fdtrace");
  const auto kp = toy_victim(4);
  sca::CampaignConfig cfg;
  cfg.num_traces = 12;
  cfg.seed = 0x5107;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg, good.path).ok);
  const std::vector<std::uint8_t> bytes = read_file(good.path);
  ASSERT_GT(bytes.size(), tracestore::kHeaderBytes);
  tracestore::ArchiveMeta good_meta;
  {
    tracestore::ArchiveReader reader;
    ASSERT_TRUE(reader.open(good.path)) << reader.error();
    good_meta = reader.meta();
    ASSERT_EQ(good_meta.num_slots, 8U);
  }

  const auto config_for = [](const ComponentIndex&) { return ComponentAttackConfig{}; };
  const std::vector<std::size_t> comps = {0, 1};
  for (const std::uint32_t slots : {0xFFFFFFFFU, 1U << 22}) {
    TempFile bad("faults_ring_bad.fdtrace");
    std::vector<std::uint8_t> patched = bytes;
    for (int i = 0; i < 4; ++i) {
      patched[24 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(slots >> (8 * i));
    }
    {
      std::ofstream out(bad.path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(patched.data()),
                static_cast<std::streamsize>(patched.size()));
    }

    tracestore::ArchiveReader reader;
    EXPECT_FALSE(reader.open(bad.path)) << "num_slots " << slots;
    EXPECT_NE(reader.error().find("num_slots"), std::string::npos) << reader.error();

    std::vector<ComponentResult> results;
    std::vector<std::size_t> accepted;
    std::string error;
    EXPECT_FALSE(attack_components_gated(bad.path, QualityConfig{}, config_for, nullptr, comps,
                                         results, accepted, nullptr, &error));
    EXPECT_NE(error.find("num_slots"), std::string::npos) << error;

#ifdef FD_TRACEDB_BIN
    const std::string cmd =
        std::string(FD_TRACEDB_BIN) + " verify " + bad.path + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << cmd;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd;
#endif

    tracestore::ArchiveMeta meta = good_meta;
    meta.num_slots = slots;
    tracestore::ArchiveWriter writer;
    EXPECT_FALSE(writer.open(bad.path + ".w", meta)) << "num_slots " << slots;
    std::remove((bad.path + ".w").c_str());
  }
  // A logn outside falcon's range is refused the same way.
  tracestore::ArchiveMeta meta = good_meta;
  meta.logn = 11;
  meta.num_slots = 1U << 10;
  tracestore::ArchiveWriter writer;
  EXPECT_FALSE(writer.open(good.path + ".w", meta));
  std::remove((good.path + ".w").c_str());
}

// The profiled backends' shape contracts hold in NDEBUG builds: a
// mismatched template beta or precision, an observation with the wrong
// hypothesis count or too few samples, and unpaired LR training data
// each throw std::invalid_argument instead of reading out of bounds. A
// batch with one bad observation folds none of its good ones.
TEST(ProfiledBackends, ShapeMismatchIsCheckedError) {
  namespace dg = distinguisher;
  const std::vector<double> alpha = {1.0, 0.8};
  const std::vector<double> prec = {2.0, 0.1, 0.1, 1.5};
  EXPECT_THROW(dg::TemplateDistinguisher(3, alpha, {0.1}, prec), std::invalid_argument);
  EXPECT_THROW(dg::TemplateDistinguisher(3, alpha, {0.1, 0.0}, {2.0, 1.5}),
               std::invalid_argument);

  dg::TemplateDistinguisher tmpl(3, alpha, {0.1, 0.0}, prec);
  dg::LrDistinguisher lr(3, std::vector<dg::LrHead>(2), 4);
  const std::vector<double> hyps(3 * 2, 1.0);
  const std::vector<float> samples = {1.0f, 2.0f};
  const dg::TraceObservation good{hyps, samples};
  const dg::TraceObservation short_hyps{std::span<const double>(hyps).first(5), samples};
  const dg::TraceObservation short_samples{hyps, std::span<const float>(samples).first(1)};
  for (dg::Distinguisher* d : std::initializer_list<dg::Distinguisher*>{&tmpl, &lr}) {
    EXPECT_THROW(d->observe({&short_hyps, 1}), std::invalid_argument);
    EXPECT_THROW(d->observe({&short_samples, 1}), std::invalid_argument);
    const dg::TraceObservation mixed[] = {good, short_samples};
    EXPECT_THROW(d->observe(mixed), std::invalid_argument);
    EXPECT_EQ(d->num_traces(), 0U);
    d->observe({&good, 1});
    EXPECT_EQ(d->num_traces(), 1U);
  }

  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ts = {0.5, 0.25};
  EXPECT_THROW((void)dg::train_lr_head(xs, ts, 4.0, dg::BackendSelection{}),
               std::invalid_argument);
}

TEST(Checkpoint, RoundTripsBitExactly) {
  CheckpointState st;
  st.reset(6);
  st.config_hash = 0xFEEDFACECAFEBEEFULL;
  st.remeasure_round = 2;
  for (const std::size_t i : {0UL, 2UL, 5UL}) {
    st.done[i] = 1;
    st.results[i] = sample_result(i + 1);
    st.accepted_traces[i] = 300 + i;
  }

  TempFile tmp("ckpt_rt.fdckpt");
  std::string err;
  ASSERT_TRUE(save_checkpoint(tmp.path, st, &err)) << err;

  CheckpointState back;
  ASSERT_TRUE(load_checkpoint(tmp.path, back, &err)) << err;
  EXPECT_EQ(back.config_hash, st.config_hash);
  EXPECT_EQ(back.remeasure_round, st.remeasure_round);
  ASSERT_EQ(back.done, st.done);
  ASSERT_EQ(back.accepted_traces, st.accepted_traces);
  for (std::size_t i = 0; i < st.done.size(); ++i) {
    if (!st.done[i]) continue;
    const auto& a = st.results[i];
    const auto& b = back.results[i];
    EXPECT_EQ(b.sign, a.sign);
    EXPECT_EQ(b.exponent, a.exponent);
    EXPECT_EQ(b.x0, a.x0);
    EXPECT_EQ(b.x1, a.x1);
    EXPECT_EQ(b.bits, a.bits);
    ASSERT_EQ(b.low_prune.top.size(), a.low_prune.top.size());
    for (std::size_t k = 0; k < a.low_prune.top.size(); ++k) {
      EXPECT_EQ(b.low_prune.top[k].guess, a.low_prune.top[k].guess);
      EXPECT_EQ(b.low_prune.top[k].score, a.low_prune.top[k].score);  // bit-exact doubles
    }
    EXPECT_EQ(b.sign_phase.score, a.sign_phase.score);
  }
}

TEST(Checkpoint, RejectsDamage) {
  CheckpointState st;
  st.reset(2);
  st.done[0] = 1;
  st.results[0] = sample_result(9);
  TempFile tmp("ckpt_dmg.fdckpt");
  std::string err;
  ASSERT_TRUE(save_checkpoint(tmp.path, st, &err)) << err;

  auto bytes = read_file(tmp.path);
  ASSERT_GT(bytes.size(), 20U);
  bytes[bytes.size() / 2] ^= 0x01;  // payload damage -> CRC mismatch
  {
    std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  CheckpointState back;
  EXPECT_FALSE(load_checkpoint(tmp.path, back, &err));
  EXPECT_FALSE(err.empty());

  EXPECT_FALSE(load_checkpoint("no_such_dir/x.fdckpt", back, &err));

  {  // truncated file
    std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
    out.write("FDCKPT1", 7);
  }
  EXPECT_FALSE(load_checkpoint(tmp.path, back, &err));
}

// --- recovery pipeline robustness ------------------------------------------

TEST(Pipeline, StructuredErrorInsteadOfThrow) {
  const auto victim = toy_victim();
  auto cfg = pipeline_config("no_such_dir/pl.fdtrace");
  const auto out = run_recovery_pipeline(victim, cfg);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.error.empty());
  EXPECT_FALSE(out.stages.empty());  // partial stage reports survive
  EXPECT_FALSE(out.recovery.f_exact);
}

TEST(Pipeline, CaptureRetriesSurviveAFlakyRig) {
  const auto victim = toy_victim();
  TempFile tmp("pl_retry.fdtrace");
  auto cfg = pipeline_config(tmp.path);
  cfg.faults.capture_fail_rate = 0.6;
  cfg.remeasure.max_capture_attempts = 8;
  const auto out = run_recovery_pipeline(victim, cfg);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.recovery.f_exact);
  EXPECT_GT(out.capture_attempts, 1U) << "fail=0.6 should force at least one retry";
}

TEST(Pipeline, ExhaustedCaptureBudgetIsAStructuredError) {
  const auto victim = toy_victim();
  TempFile tmp("pl_down.fdtrace");
  auto cfg = pipeline_config(tmp.path);
  cfg.faults.capture_fail_rate = 1.0;  // rig permanently down
  cfg.remeasure.max_capture_attempts = 3;
  const auto out = run_recovery_pipeline(victim, cfg);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("rig down"), std::string::npos) << out.error;
  EXPECT_EQ(out.capture_attempts, 3U);
}

// Each single fault mode, gated and adaptive, still yields exact
// recovery end to end.
TEST(Pipeline, SurvivesEachSingleFaultMode) {
  const auto victim = toy_victim();
  struct Mode {
    const char* name;
    sca::FaultConfig fc;
  };
  std::vector<Mode> modes(5);
  modes[0] = {"drop", {}};
  modes[0].fc.drop_rate = 0.15;
  modes[1] = {"desync", {}};
  modes[1].fc.desync_rate = 0.08;
  modes[2] = {"saturate", {}};
  modes[2].fc.saturate_rate = 0.05;
  modes[3] = {"glitch", {}};
  modes[3].fc.glitch_rate = 0.03;
  modes[4] = {"chunk", {}};
  modes[4].fc.chunk_corrupt_rate = 0.08;

  for (const auto& m : modes) {
    TempFile tmp(std::string("pl_mode_") + m.name + ".fdtrace");
    auto cfg = pipeline_config(tmp.path);
    cfg.faults = m.fc;
    cfg.quality.enabled = true;
    cfg.adaptive = true;
    const auto out = run_recovery_pipeline(victim, cfg);
    ASSERT_TRUE(out.ok) << m.name << ": " << out.error;
    EXPECT_TRUE(out.recovery.f_exact) << m.name;
    EXPECT_TRUE(out.recovery.forgery_verified) << m.name;
  }
}

// The headline acceptance pin: >=10% dropped + 5% desynced + 2%
// saturated queries, and the adaptive controller still recovers f
// exactly -- with bit-identical results at 1 and >1 workers.
TEST(Pipeline, AcceptanceFaultPlanRecoversExactlyAtAnyWorkerCount) {
  const auto victim = toy_victim();

  RecoveryPipelineResult ref;
  bool have_ref = false;
  for (const std::size_t threads : {1UL, 3UL}) {
    TempFile tmp("pl_accept_t" + std::to_string(threads) + ".fdtrace");
    auto cfg = pipeline_config(tmp.path, threads);
    cfg.faults = acceptance_faults();
    cfg.quality.enabled = true;
    cfg.adaptive = true;
    const auto out = run_recovery_pipeline(victim, cfg);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_TRUE(out.recovery.f_exact);
    EXPECT_TRUE(out.recovery.forgery_verified);
    if (!have_ref) {
      ref = out;
      have_ref = true;
      continue;
    }
    // Worker count changes wall time only (DESIGN.md section 9).
    EXPECT_EQ(out.recovery.recovered_f, ref.recovery.recovered_f);
    EXPECT_EQ(out.recovery.derived_g, ref.recovery.derived_g);
    EXPECT_EQ(out.recovery.components_correct, ref.recovery.components_correct);
    EXPECT_EQ(out.flagged_components, ref.flagged_components);
    EXPECT_EQ(out.remeasure_rounds, ref.remeasure_rounds);
    EXPECT_EQ(out.quality.accepted, ref.quality.accepted);
    EXPECT_EQ(out.quality.rejected_saturated, ref.quality.rejected_saturated);
    EXPECT_EQ(out.quality.rejected_energy, ref.quality.rejected_energy);
  }
}

// Kill-after-N then resume reproduces an uninterrupted run bit for bit.
TEST(Pipeline, KilledRunResumesBitIdentically) {
  const auto victim = toy_victim();

  // Reference: one uninterrupted run.
  RecoveryPipelineResult ref;
  {
    TempFile tmp("pl_ref.fdtrace");
    auto cfg = pipeline_config(tmp.path);
    cfg.faults = acceptance_faults();
    cfg.quality.enabled = true;
    cfg.adaptive = true;
    ref = run_recovery_pipeline(victim, cfg);
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_TRUE(ref.recovery.f_exact);
  }

  TempFile tmp("pl_kill.fdtrace");
  auto cfg = pipeline_config(tmp.path);
  cfg.faults = acceptance_faults();
  cfg.quality.enabled = true;
  cfg.adaptive = true;
  cfg.checkpoint = true;
  cfg.checkpoint_every = 2;

  // Run 1: killed after 4 components land in the checkpoint.
  auto killed_cfg = cfg;
  killed_cfg.abort_after_components = 4;
  const auto killed = run_recovery_pipeline(victim, killed_cfg);
  EXPECT_FALSE(killed.ok);
  EXPECT_NE(killed.error.find("aborted"), std::string::npos) << killed.error;
  // The checkpoint and archive survive the kill for the resume.
  EXPECT_TRUE(std::ifstream(tmp.path).good());
  EXPECT_TRUE(std::ifstream(tmp.path + ".fdckpt").good());

  // Run 2: resume completes the attack without re-capturing.
  auto resume_cfg = cfg;
  resume_cfg.resume = true;
  const auto out = run_recovery_pipeline(victim, resume_cfg);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.resumed);
  EXPECT_TRUE(out.recovery.f_exact);
  EXPECT_TRUE(out.recovery.forgery_verified);

  // Bit-identical to the uninterrupted run.
  EXPECT_EQ(out.recovery.recovered_f, ref.recovery.recovered_f);
  EXPECT_EQ(out.recovery.derived_g, ref.recovery.derived_g);
  EXPECT_EQ(out.recovery.components_correct, ref.recovery.components_correct);
  EXPECT_EQ(out.recovery.components_total, ref.recovery.components_total);
  EXPECT_EQ(out.flagged_components, ref.flagged_components);
  EXPECT_EQ(out.partial, ref.partial);
}

// A checkpoint from a different experiment refuses to resume silently:
// the pipeline falls back to a fresh capture instead of mixing results.
TEST(Pipeline, ResumeRejectsForeignCheckpoint) {
  const auto victim = toy_victim();
  TempFile tmp("pl_foreign.fdtrace");
  auto cfg = pipeline_config(tmp.path);
  cfg.faults = acceptance_faults();
  cfg.quality.enabled = true;
  cfg.adaptive = true;
  cfg.checkpoint = true;
  cfg.checkpoint_every = 2;

  // Kill a run to leave a checkpoint behind...
  auto killed_cfg = cfg;
  killed_cfg.abort_after_components = 2;
  (void)run_recovery_pipeline(victim, killed_cfg);
  ASSERT_TRUE(std::ifstream(tmp.path + ".fdckpt").good());

  // ...then resume under a different attack seed: the hash mismatch must
  // force a fresh capture, and the run still completes.
  auto other = cfg;
  other.resume = true;
  other.attack.seed = cfg.attack.seed + 1;
  const auto out = run_recovery_pipeline(victim, other);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_FALSE(out.resumed);
  EXPECT_TRUE(out.recovery.f_exact);
}

}  // namespace
}  // namespace fd::attack
