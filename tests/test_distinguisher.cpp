// The distinguisher subsystem's acceptance pins (DESIGN.md section 14):
//
//   - CpaDistinguisher is bit-identical to CpaEngine on the same
//     observation stream -- serially, after a sharded merge, and
//     through the archive demux (which must also cost the same number
//     of attack.archive.scans passes);
//   - every backend's serialize() round-trips its fold state
//     bit-exactly (the checkpoint / fleet-wire contract), and the
//     backend-tagged pipeline checkpoint resumes bit-identically while
//     refusing another backend's file;
//   - LR training is a pure function of (profiling data, selection):
//     two trainings from the same seed produce bit-identical heads;
//   - the top1/top2 confidence criterion is calibrated across
//     backends: profiled log-likelihood margins are normalized by the
//     reported per-trace sd, so one threshold gates CPA and profiled
//     decisions alike;
//   - a 2-worker fleet under a profiled backend (scorer rebuilt by each
//     worker from the BackendSelection) reproduces the single-process
//     run bit-identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/quality.h"
#include "attack/recovery_pipeline.h"
#include "attack/streaming_cpa.h"
#include "common/rng.h"
#include "distinguisher/component_scorer.h"
#include "distinguisher/cpa_backend.h"
#include "distinguisher/lr_backend.h"
#include "distinguisher/streaming.h"
#include "distinguisher/template_backend.h"
#include "falcon/falcon.h"
#include "fleet/coordinator.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd {
namespace {

namespace dg = fd::distinguisher;

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { clear(); }
  ~TempFile() { clear(); }
  void clear() const {
    std::remove(path.c_str());
    std::remove((path + ".fdckpt").c_str());
    std::remove((path + ".fdckpt.tmp").c_str());
    for (int i = 0; i < 8; ++i) {
      std::remove((path + ".shard" + std::to_string(i)).c_str());
    }
    for (int i = 1; i < 16; ++i) {
      const std::string t = path + ".task" + std::to_string(i) + ".fdckpt";
      std::remove(t.c_str());
      std::remove((t + ".tmp").c_str());
    }
  }
  std::string path;
};

// A deterministic synthetic observation stream: G hypotheses per trace
// (stride 1, the CPA broadcast layout) or G x C (profiled layout), and
// C sample columns correlated with guess `kTrueGuess`'s hypothesis.
constexpr std::size_t kTrueGuess = 7;

struct Stream {
  std::size_t guesses, columns, stride;
  std::vector<std::vector<double>> hyp;     // per trace
  std::vector<std::vector<float>> samples;  // per trace

  Stream(std::size_t g, std::size_t c, std::size_t stride_in, std::size_t traces,
         std::uint64_t seed)
      : guesses(g), columns(c), stride(stride_in) {
    ChaCha20Prng rng(seed);
    for (std::size_t t = 0; t < traces; ++t) {
      std::vector<double> h(g * stride);
      for (double& v : h) v = static_cast<double>(rng.next_u64() % 33);
      std::vector<float> s(c);
      for (std::size_t j = 0; j < c; ++j) {
        s[j] = static_cast<float>(h[kTrueGuess * stride + (stride == 1 ? 0 : j)] +
                                  0.25 * rng.gaussian());
      }
      hyp.push_back(std::move(h));
      samples.push_back(std::move(s));
    }
  }

  [[nodiscard]] dg::TraceObservation at(std::size_t t) const {
    return {std::span<const double>(hyp[t]), std::span<const float>(samples[t])};
  }
  void feed(dg::Distinguisher& d, std::size_t begin, std::size_t end,
            std::size_t batch = 7) const {
    std::vector<dg::TraceObservation> obs;
    for (std::size_t t = begin; t < end; ++t) {
      obs.push_back(at(t));
      if (obs.size() == batch) {
        d.observe(obs);
        obs.clear();
      }
    }
    if (!obs.empty()) d.observe(obs);
  }
};

std::vector<std::uint8_t> bytes_of(const dg::Distinguisher& d) {
  std::vector<std::uint8_t> out;
  d.serialize(out);
  return out;
}

// --- CPA behind the interface --------------------------------------------

TEST(CpaAdapter, BitIdenticalToCpaEngineSerially) {
  const Stream st(49, 3, 1, 301, 0xD151);
  attack::CpaEngine engine(st.guesses, st.columns);
  dg::CpaDistinguisher dist(st.guesses, st.columns);

  for (std::size_t t = 0; t < st.hyp.size(); ++t) {
    engine.add_trace(st.hyp[t], st.samples[t]);
  }
  st.feed(dist, 0, st.hyp.size());

  ASSERT_EQ(dist.num_traces(), engine.num_traces());
  for (std::size_t g = 0; g < st.guesses; ++g) {
    // Exact double equality: same kernel, same fold order.
    EXPECT_EQ(dist.score(g), engine.peak(g)) << "guess " << g;
    for (std::size_t s = 0; s < st.columns; ++s) {
      EXPECT_EQ(dist.correlation(g, s), engine.correlation(g, s));
    }
  }
  EXPECT_EQ(dist.ranking(), engine.ranking());
  EXPECT_EQ(dist.ranking().front(), kTrueGuess);
}

TEST(CpaAdapter, ShardedMergeReproducesTheSerialFold) {
  const Stream st(25, 2, 1, 240, 0xD152);

  dg::CpaDistinguisher serial(st.guesses, st.columns);
  st.feed(serial, 0, st.hyp.size());

  // Three uneven shards, merged in shard order (the fleet reduction).
  const std::size_t cuts[] = {0, 57, 140, st.hyp.size()};
  dg::CpaDistinguisher merged(st.guesses, st.columns);
  for (int s = 0; s < 3; ++s) {
    dg::CpaDistinguisher shard(st.guesses, st.columns);
    st.feed(shard, cuts[s], cuts[s + 1]);
    merged.merge(shard);
  }

  EXPECT_EQ(bytes_of(merged), bytes_of(serial));
  for (std::size_t g = 0; g < st.guesses; ++g) EXPECT_EQ(merged.score(g), serial.score(g));
  EXPECT_EQ(merged.ranking(), serial.ranking());
}

TEST(CpaAdapter, StreamingDemuxMatchesDirectCpaStreamingAndScanCount) {
  ChaCha20Prng rng(0xD153);
  const auto kp = falcon::keygen(4, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = 200;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0xD153;

  TempFile tmp("dist_demux.fdtrace");
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg, tmp.path).ok);
  tracestore::ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));

  const auto model_cpa = [](std::uint32_t guess, const attack::KnownOperand& k) {
    return attack::hyp_exponent(guess, k);
  };
  std::vector<dg::StreamingSpec> specs;
  std::vector<attack::StreamingCpaSpec> cpa_specs;
  for (std::size_t slot : {std::size_t{0}, std::size_t{3}}) {
    dg::StreamingSpec s;
    s.slot = slot;
    s.sample_offsets = {sca::window::kOffExpSum};
    for (std::uint32_t e = 1005; e <= 1053; ++e) s.guesses.push_back(e);
    s.model = [model_cpa](std::uint32_t g, const attack::KnownOperand& k, std::size_t) {
      return model_cpa(g, k);
    };
    specs.push_back(s);

    attack::StreamingCpaSpec c;
    c.slot = slot;
    c.sample_offsets = s.sample_offsets;
    c.guesses = s.guesses;
    c.model = model_cpa;
    cpa_specs.push_back(c);
  }
  const dg::DistinguisherFactory factory = [](const dg::StreamingSpec& s) {
    return std::make_unique<dg::CpaDistinguisher>(s.guesses.size(), s.sample_offsets.size());
  };

  // One demux scan == one direct-CPA scan; per-spec folds bit-identical.
  const std::size_t scans0 = reader.scans_started();
  const auto engines = attack::run_cpa_streaming_multi(reader, cpa_specs);
  const std::size_t scans1 = reader.scans_started();
  const auto dists = dg::run_streaming_multi(reader, specs, factory);
  const std::size_t scans2 = reader.scans_started();
  EXPECT_EQ(scans1 - scans0, 1u);
  EXPECT_EQ(scans2 - scans1, 1u);

  ASSERT_EQ(dists.size(), engines.size());
  for (std::size_t i = 0; i < dists.size(); ++i) {
    ASSERT_EQ(dists[i]->num_traces(), engines[i].num_traces());
    for (std::size_t g = 0; g < engines[i].num_guesses(); ++g) {
      EXPECT_EQ(dists[i]->score(g), engines[i].peak(g)) << "spec " << i << " guess " << g;
    }
    EXPECT_EQ(dists[i]->ranking(), engines[i].ranking()) << "spec " << i;

    // And the single-spec entry point agrees with the demux.
    const auto solo = dg::run_streaming(reader, specs[i], factory);
    EXPECT_EQ(bytes_of(*solo), bytes_of(*dists[i]));
  }
}

// --- serde round-trips ----------------------------------------------------

void expect_roundtrip(const dg::Distinguisher& d) {
  const auto bytes = bytes_of(d);
  std::size_t off = 0;
  const auto back = dg::deserialize_distinguisher(bytes, off);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(off, bytes.size());
  EXPECT_EQ(back->backend_id(), d.backend_id());
  EXPECT_EQ(back->num_traces(), d.num_traces());
  EXPECT_EQ(bytes_of(*back), bytes);  // byte-exact re-serialization
  for (std::size_t g = 0; g < d.num_guesses(); ++g) {
    EXPECT_EQ(back->score(g), d.score(g));
    EXPECT_EQ(back->score_sd(g), d.score_sd(g));
  }
  EXPECT_EQ(back->ranking(), d.ranking());

  // Truncation never parses.
  std::size_t toff = 0;
  EXPECT_EQ(dg::deserialize_distinguisher(
                std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1), toff),
            nullptr);
}

TEST(Serde, EveryBackendRoundTripsItsFoldBitExactly) {
  {
    const Stream st(12, 2, 1, 90, 0x5E01);
    dg::CpaDistinguisher d(st.guesses, st.columns);
    st.feed(d, 0, st.hyp.size());
    expect_roundtrip(d);
  }
  {
    const Stream st(12, 3, 3, 90, 0x5E02);
    // A small synthetic phase precision (diagonal-dominant PD matrix).
    const std::vector<double> alpha = {1.0, 0.8, 1.2};
    const std::vector<double> beta = {0.1, -0.2, 0.0};
    const std::vector<double> prec = {2.0, 0.1, 0.0, 0.1, 1.5, 0.2, 0.0, 0.2, 1.8};
    dg::TemplateDistinguisher d(st.guesses, alpha, beta, prec);
    st.feed(d, 0, st.hyp.size());
    EXPECT_GT(d.score_sd(0), 0.0);  // profiled backends report per-trace sd
    expect_roundtrip(d);
  }
  {
    const Stream st(12, 2, 2, 90, 0x5E03);
    std::vector<dg::LrHead> heads(2);
    heads[0] = {0.9, 0.05, 16.0, 4.0, 32.0, 0.5, 0.4};
    heads[1] = {1.1, -0.1, 16.0, 4.0, 32.0, 0.5, -0.2};
    dg::LrDistinguisher d(st.guesses, heads, 64);
    st.feed(d, 0, st.hyp.size());
    EXPECT_GT(d.score_sd(0), 0.0);
    expect_roundtrip(d);

    // The LR merge contract: sharded folds (including the per-guess
    // hypothesis-energy sums) recombine to the serial fold when the
    // shard cut is batch-aligned -- each 64-trace tile is then reduced
    // identically on both sides before the (exact) sum-of-sums merge.
    dg::LrDistinguisher serial(st.guesses, heads, 64);
    st.feed(serial, 0, st.hyp.size());
    dg::LrDistinguisher a(st.guesses, heads, 64);
    dg::LrDistinguisher b(st.guesses, heads, 64);
    st.feed(a, 0, 64);
    st.feed(b, 64, st.hyp.size());
    a.merge(b);
    EXPECT_EQ(bytes_of(a), bytes_of(serial));
  }
}

// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(Serde, CpaFoldBytesPinnedAndOnlyModeZeroParses) {
  // A CPA fold's checkpoint / kFold bytes: backend id, a mode byte that
  // is always 0, the kernel batch, then the sums. Pinned so the layout
  // stays what earlier checkpoints and fleet peers wrote.
  const Stream st(12, 2, 1, 90, 0x5E01);
  dg::CpaDistinguisher d(st.guesses, st.columns);
  st.feed(d, 0, st.hyp.size());
  std::vector<std::uint8_t> bytes = bytes_of(d);
  ASSERT_EQ(bytes.size(), 570U);
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(dg::Backend::kCpa));
  EXPECT_EQ(bytes[1], 0U);
  EXPECT_EQ(fnv1a(bytes), 0x5594172896993F8DULL);

  // Mode 1 (a signed-peak ranking once) no longer parses.
  bytes[1] = 1;
  std::size_t off = 0;
  EXPECT_EQ(dg::deserialize_distinguisher(bytes, off), nullptr);
}

// --- demux input checks (checked in every build mode) ---------------------

dg::StreamingSpec checked_spec() {
  dg::StreamingSpec s;
  s.sample_offsets = {sca::window::kOffExpSum, sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1010; ++e) s.guesses.push_back(e);
  s.model = [](std::uint32_t g, const attack::KnownOperand& k, std::size_t) {
    return attack::hyp_exponent(g, k);
  };
  return s;
}

std::unique_ptr<dg::Distinguisher> make_cpa(const dg::StreamingSpec& s) {
  return std::make_unique<dg::CpaDistinguisher>(s.guesses.size(), s.sample_offsets.size());
}

TEST(StreamingDemux, RejectsSpecWithoutGuesses) {
  auto s = checked_spec();
  s.guesses.clear();
  tracestore::ArchiveReader reader;
  EXPECT_THROW((void)dg::run_streaming(reader, s, make_cpa), std::invalid_argument);
}

TEST(StreamingDemux, RejectsSpecWithoutSampleOffsets) {
  auto s = checked_spec();
  s.sample_offsets.clear();
  tracestore::ArchiveReader reader;
  EXPECT_THROW((void)dg::run_streaming(reader, s, make_cpa), std::invalid_argument);
}

TEST(StreamingDemux, RejectsSpecWithoutModel) {
  auto s = checked_spec();
  s.model = nullptr;
  tracestore::ArchiveReader reader;
  EXPECT_THROW((void)dg::run_streaming(reader, s, make_cpa), std::invalid_argument);
}

TEST(StreamingDemux, RejectsDistinguisherWithOtherGuessCount) {
  const auto s = checked_spec();
  const dg::DistinguisherFactory wrong = [](const dg::StreamingSpec& spec) {
    return std::make_unique<dg::CpaDistinguisher>(spec.guesses.size() + 1,
                                                  spec.sample_offsets.size());
  };
  tracestore::ArchiveReader reader;
  EXPECT_THROW((void)dg::run_streaming(reader, s, wrong), std::invalid_argument);
}

TEST(StreamingDemux, RejectsHypStrideNeitherOneNorColumnCount) {
  // A profiled backend fitted on 3 columns, fed a 2-offset spec:
  // hyp_stride() = 3 is neither the broadcast 1 nor the spec's 2.
  const auto s = checked_spec();
  const dg::DistinguisherFactory wrong = [](const dg::StreamingSpec& spec) {
    return std::make_unique<dg::TemplateDistinguisher>(
        spec.guesses.size(), std::vector<double>{1.0, 0.8, 1.2},
        std::vector<double>{0.1, -0.2, 0.0},
        std::vector<double>{2.0, 0.1, 0.0, 0.1, 1.5, 0.2, 0.0, 0.2, 1.8});
  };
  tracestore::ArchiveReader reader;
  EXPECT_THROW((void)dg::run_streaming(reader, s, wrong), std::invalid_argument);
}

// --- LR training determinism ---------------------------------------------

TEST(LrTraining, FixedSeedTrainingIsBitIdentical) {
  dg::BackendSelection sel;
  sel.backend = dg::Backend::kLr;
  sel.profile_traces = 150;
  sel.profile_components = 2;
  sca::DeviceConfig device;
  device.noise_sigma = 2.0;

  const auto a = dg::make_component_scorer(sel, device, 3);
  const auto b = dg::make_component_scorer(sel, device, 3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto* la = dynamic_cast<const dg::LrScorer*>(a.get());
  const auto* lb = dynamic_cast<const dg::LrScorer*>(b.get());
  ASSERT_NE(la, nullptr);
  ASSERT_NE(lb, nullptr);

  EXPECT_EQ(la->trained(), lb->trained());
  bool any_trained = false;
  for (std::size_t off = 0; off < dg::PooledProfile::kDim; ++off) {
    const auto& ha = la->heads()[off];
    const auto& hb = lb->heads()[off];
    // Bit-level equality of every trained parameter.
    EXPECT_EQ(std::memcmp(&ha, &hb, sizeof ha), 0) << "offset " << off;
    any_trained |= la->trained()[off];
  }
  EXPECT_TRUE(any_trained);
}

// --- calibrated confidence (the cross-backend acceptance criterion) ------

TEST(Confidence, LogLikelihoodMarginsGateLikePearsonOnes) {
  const std::size_t traces = 400;
  attack::ConfidenceConfig cfg;

  const auto result_with = [](double top, double runner, double sd) {
    attack::ComponentResult r;
    for (auto* ph : {&r.sign_phase, &r.low_prune, &r.high_prune}) {
      ph->top = {{0, top}, {1, runner}};
      ph->score_sd = sd;
    }
    return r;
  };

  // A Pearson result with a clearly-confident margin...
  const double gap = 0.05;
  const auto pearson = attack::component_confidence(result_with(0.6, 0.6 - gap, 0.0),
                                                    traces, cfg);
  EXPECT_TRUE(pearson.confident);

  // ...and the same decision expressed in log-likelihood units (scores
  // and per-trace sd both scaled by 1e4) gates identically: the margin
  // is normalized by score_sd onto the Pearson per-trace scale.
  const double scale = 1e4;
  const auto profiled = attack::component_confidence(
      result_with(0.6 * scale, (0.6 - gap) * scale, scale), traces, cfg);
  EXPECT_TRUE(profiled.confident);
  // The normalized margin matches the Pearson one up to the rounding
  // of (top * scale - runner * scale) / scale.
  EXPECT_NEAR(profiled.margin, pearson.margin, 1e-12);
  EXPECT_DOUBLE_EQ(profiled.threshold, pearson.threshold);

  // Regression pin: a raw LL gap that dwarfs the Pearson threshold but
  // is tiny relative to its own per-trace noise must NOT pass. Without
  // the score_sd normalization this gap (5.0 >> z/sqrt(D)) would be
  // accepted at any noise level.
  const auto noisy = attack::component_confidence(result_with(1000.0, 995.0, 1e6),
                                                  traces, cfg);
  EXPECT_FALSE(noisy.confident);

  // score_sd == 0 (the CPA marker) keeps the historical raw-gap rule.
  const auto tiny = attack::component_confidence(
      result_with(0.4, 0.4 - 1e-9, 0.0), traces, cfg);
  EXPECT_FALSE(tiny.confident);
}

// --- backend-tagged checkpoint resume ------------------------------------

attack::RecoveryPipelineConfig pipeline_config(const std::string& archive,
                                               dg::Backend backend) {
  attack::RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = 140;
  cfg.attack.device.noise_sigma = 2.0;
  cfg.attack.adversarial_random = 100;
  cfg.attack.seed = 0xC4EC;
  cfg.attack.backend.backend = backend;
  cfg.attack.backend.profile_traces = 150;
  cfg.archive_path = archive;
  cfg.checkpoint = true;
  cfg.checkpoint_every = 4;
  return cfg;
}

falcon::KeyPair checkpoint_victim() {
  ChaCha20Prng rng("distinguisher ckpt victim");
  return falcon::keygen(3, rng);
}

class CheckpointResume : public ::testing::TestWithParam<dg::Backend> {};

TEST_P(CheckpointResume, KillThenResumeIsBitIdenticalPerBackend) {
  const dg::Backend backend = GetParam();
  const auto victim = checkpoint_victim();

  const auto with_scorer = [](attack::RecoveryPipelineConfig cfg) {
    cfg.attack.scorer =
        dg::make_component_scorer(cfg.attack.backend, cfg.attack.device, 3);
    return cfg;
  };

  // Parameterized instances run as separate ctest processes that may
  // execute concurrently in one directory — keep filenames disjoint
  // per backend or parallel runs clobber each other's checkpoints.
  const std::string tag(dg::backend_name(backend));

  // Uninterrupted reference.
  TempFile ref_tmp("dist_ckpt_ref_" + tag + ".fdtrace");
  const auto ref = attack::run_recovery_pipeline(
      victim, with_scorer(pipeline_config(ref_tmp.path, backend)));
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(ref.recovery.forgery_verified);

  // Killed after 4 of 8 components, then resumed.
  TempFile tmp("dist_ckpt_kill_" + tag + ".fdtrace");
  auto kill_cfg = with_scorer(pipeline_config(tmp.path, backend));
  kill_cfg.abort_after_components = 4;
  const auto killed = attack::run_recovery_pipeline(victim, kill_cfg);
  ASSERT_FALSE(killed.ok);

  auto resume_cfg = with_scorer(pipeline_config(tmp.path, backend));
  resume_cfg.resume = true;
  const auto resumed = attack::run_recovery_pipeline(victim, resume_cfg);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.recovery.recovered_f, ref.recovery.recovered_f);
  EXPECT_EQ(resumed.recovery.components_correct, ref.recovery.components_correct);
  EXPECT_EQ(resumed.recovery.forgery_verified, ref.recovery.forgery_verified);

  // A different backend's run refuses the tagged checkpoint (fresh
  // start, not a poisoned resume).
  const dg::Backend other =
      backend == dg::Backend::kCpa ? dg::Backend::kTemplate : dg::Backend::kCpa;
  TempFile other_tmp("dist_ckpt_other_" + tag + ".fdtrace");
  auto other_cfg = with_scorer(pipeline_config(other_tmp.path, other));
  other_cfg.abort_after_components = 4;
  (void)attack::run_recovery_pipeline(victim, other_cfg);
  std::rename((other_tmp.path + ".fdckpt").c_str(), (tmp.path + ".fdckpt").c_str());
  auto mismatch_cfg = with_scorer(pipeline_config(tmp.path, backend));
  mismatch_cfg.resume = true;
  const auto fresh = attack::run_recovery_pipeline(victim, mismatch_cfg);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.recovery.recovered_f, ref.recovery.recovered_f);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CheckpointResume,
                         ::testing::Values(dg::Backend::kCpa, dg::Backend::kTemplate,
                                           dg::Backend::kLr),
                         [](const auto& info) {
                           return std::string(dg::backend_name(info.param));
                         });

// --- fleet e2e under a profiled backend ----------------------------------

TEST(FleetBackend, TwoWorkerTemplateRunMatchesSingleProcess) {
  // The same victim run_fleet derives internally.
  ChaCha20Prng rng("victim key seed");
  const auto victim = falcon::keygen(3, rng);

  TempFile ref_tmp("dist_fleet_ref.fdtrace");
  auto ref_cfg = pipeline_config(ref_tmp.path, dg::Backend::kTemplate);
  ref_cfg.attack.scorer =
      dg::make_component_scorer(ref_cfg.attack.backend, ref_cfg.attack.device, 3);
  const auto ref = attack::run_recovery_pipeline(victim, ref_cfg);
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(ref.recovery.forgery_verified);

  TempFile tmp("dist_fleet.fdtrace");
  fleet::FleetConfig fc;
  fc.logn = 3;
  fc.workers = 2;
  fc.components_per_shard = 4;
  fc.pipeline = pipeline_config(tmp.path, dg::Backend::kTemplate);
#ifdef FD_ATTACK_BIN
  fc.worker_binary = FD_ATTACK_BIN;
#endif
  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.worker_deaths, 0u);

  // Workers rebuilt the template scorer from the BackendSelection on
  // the wire; the fleet's recovery is bit-identical to single-process.
  EXPECT_EQ(res.recovery.recovered_f, ref.recovery.recovered_f);
  EXPECT_EQ(res.recovery.components_correct, ref.recovery.components_correct);
  EXPECT_TRUE(res.recovery.forgery_verified);
}

}  // namespace
}  // namespace fd
