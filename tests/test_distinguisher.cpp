// The distinguisher subsystem's acceptance pins (DESIGN.md section 14):
//
//   - the profiled backends' scores are pinned bit for bit over a
//     synthetic observation stream, and both report a per-trace sd;
//   - the backend-tagged pipeline checkpoint resumes bit-identically
//     while refusing another backend's file;
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

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attack/quality.h"
#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "distinguisher/component_scorer.h"
#include "distinguisher/lr_backend.h"
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

// A deterministic synthetic observation stream in the profiled layout:
// G x C hypotheses per trace and C sample columns correlated with guess
// `kTrueGuess`'s hypothesis.
constexpr std::size_t kTrueGuess = 7;

struct Stream {
  std::size_t guesses, columns;
  std::vector<std::vector<double>> hyp;     // per trace
  std::vector<std::vector<float>> samples;  // per trace

  Stream(std::size_t g, std::size_t c, std::size_t traces, std::uint64_t seed)
      : guesses(g), columns(c) {
    ChaCha20Prng rng(seed);
    for (std::size_t t = 0; t < traces; ++t) {
      std::vector<double> h(g * c);
      for (double& v : h) v = static_cast<double>(rng.next_u64() % 33);
      std::vector<float> s(c);
      for (std::size_t j = 0; j < c; ++j) {
        s[j] = static_cast<float>(h[kTrueGuess * c + j] + 0.25 * rng.gaussian());
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

// --- profiled backends: per-trace sd and pinned scores -------------------

// FNV-1a over the bit patterns of every guess's score and score_sd, then
// the ranking: a digest of the backend's whole observe/score arithmetic.
// The pinned values below were computed on the tree that still had the
// backends' merge and serde, so they hold observe/score to it.
std::uint64_t score_digest(const dg::Distinguisher& d) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (std::size_t g = 0; g < d.num_guesses(); ++g) {
    mix(std::bit_cast<std::uint64_t>(d.score(g)));
    mix(std::bit_cast<std::uint64_t>(d.score_sd(g)));
  }
  for (const std::size_t g : d.ranking()) mix(g);
  return h;
}

TEST(ProfiledBackends, ScoresPinnedAndReportPerTraceSd) {
  {
    const Stream st(12, 3, 90, 0x5E02);
    // A small synthetic phase precision (diagonal-dominant PD matrix).
    const std::vector<double> alpha = {1.0, 0.8, 1.2};
    const std::vector<double> beta = {0.1, -0.2, 0.0};
    const std::vector<double> prec = {2.0, 0.1, 0.0, 0.1, 1.5, 0.2, 0.0, 0.2, 1.8};
    dg::TemplateDistinguisher d(st.guesses, alpha, beta, prec);
    st.feed(d, 0, st.hyp.size());
    EXPECT_EQ(d.num_traces(), st.hyp.size());
    EXPECT_GT(d.score_sd(0), 0.0);  // profiled backends report per-trace sd
    EXPECT_EQ(d.ranking().front(), kTrueGuess);
    EXPECT_EQ(score_digest(d), 0x6D7DDEB58BE6D344ULL);
  }
  {
    const Stream st(12, 2, 90, 0x5E03);
    std::vector<dg::LrHead> heads(2);
    heads[0] = {0.9, 0.05, 16.0, 4.0, 32.0, 0.5, 0.4};
    heads[1] = {1.1, -0.1, 16.0, 4.0, 32.0, 0.5, -0.2};
    dg::LrDistinguisher d(st.guesses, heads, 64);
    st.feed(d, 0, st.hyp.size());
    EXPECT_EQ(d.num_traces(), st.hyp.size());
    EXPECT_GT(d.score_sd(0), 0.0);
    EXPECT_EQ(d.ranking().front(), kTrueGuess);
    EXPECT_EQ(score_digest(d), 0x9A804A456DE2F014ULL);
  }
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
