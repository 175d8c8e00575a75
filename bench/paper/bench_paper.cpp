// bench_paper: the program behind the repository benchmark (README.md here).
// One process runs one workload of paper-scale FALCON key recovery:
//
//   bench_paper --workload f512|paper16|extend25|fleet256 --seed N
//               --seconds S --work-dir DIR [--trace OUT_DIR]
//   bench_paper --smoke --work-dir DIR
//
// A run first sets up several times over (the victim's keygen;
// extend25's synthetic campaign), then repeats the workload's timed
// operation -- calls into the product's public entry points -- until S
// seconds have passed, checking every result. It prints one JSON object
// of raw samples as its last line; run.py turns them into medians.
//
// --trace runs the same inputs twice instead: once through the public
// entry point (the untraced reference) and once split into smaller
// public calls, each wrapped in a span of this file. Nothing under src/
// is instrumented. The spans land in OUT_DIR/spans.jsonl in the obs
// "span" dialect, so `fd-report OUT_DIR/spans.jsonl` prints the
// self/total table and `--export-trace` opens in Perfetto; the per-layer
// metrics land in OUT_DIR/layers.json.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/cpa_kernel.h"
#include "attack/parallel_attack.h"
#include "attack/quality.h"
#include "attack/recovery_pipeline.h"
#include "bench_util.h"
#include "common/rng.h"
#include "exec/seed_split.h"
#include "falcon/falcon.h"
#include "fleet/coordinator.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

using namespace fd;
namespace jsonl = fd::obs::jsonl;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The victim is fixed per ring size, as in `fd-attack recover`: --seed
// varies the signing queries and the device noise. A seed-derived key
// would make set-up time a draw from keygen's retry distribution
// (0.3-1.1 s at FALCON-512) rather than a measurement.
constexpr const char* kVictimSeed = "victim key seed";
constexpr const char* kForgeMessage = "forged by the falcon-down adversary";
constexpr std::uint64_t kForgeSalt = 0xF04C3;  // run_recovery_pipeline's forge RNG
// Untimed set-up repeats before the timed ones (see set_up); runs shorter
// than this (--smoke) skip it.
constexpr double kWarmUpS = 1.0;

enum class Kind { kPipeline, kCaptureReattack, kExtend, kFleet };

struct Shape {
  const char* name;
  Kind kind;
  unsigned logn;
  double sigma;
  std::size_t queries;  // signing queries per capture (extend: traces)
  std::size_t capture_shards = 1;
  std::size_t reattacks = 0;  // capture-once workloads: archive re-reads
  // extend: low-mantissa guesses scanned; 0 = the exhaustive 2^25 space.
  std::size_t extend_space = 0;
};

// Every shape must recover on every seed: one failed run fails the set.
// paper16 at 16k queries lost 1 of 45 capture seeds, 24k none of 135;
// extend25's prune (truth vs. its exact right shift) failed 43% of seeds
// at sigma 2 and 3% at sigma 1 with 24 traces, none of 150 at 0.5.
const Shape kShapes[] = {
    {"f512", Kind::kPipeline, 9, 2.0, 900},
    {"paper16", Kind::kCaptureReattack, 4, 12.0, 24000, 1, 3},
    {"extend25", Kind::kExtend, 9, 0.5, 24},
    {"fleet256", Kind::kFleet, 8, 2.0, 900, 2},
};

// Toy sizes of the same four code paths (--smoke, the ctest entry); 200
// queries recover FALCON-8 at sigma 1, not reliably at 2.
const Shape kSmokeShapes[] = {
    {"f512", Kind::kPipeline, 3, 1.0, 200},
    {"paper16", Kind::kCaptureReattack, 3, 1.0, 200, 1, 2},
    {"extend25", Kind::kExtend, 9, 2.0, 24, 1, 0, std::size_t{1} << 16},
    {"fleet256", Kind::kFleet, 3, 1.0, 200, 2},
};

// ---- spans kept in memory, written as obs "span" JSONL at exit -------------

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root
  double ts_us = 0.0;
  double wall_us = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t trace_id) : trace_id_(trace_id) {}

  // Runs fn inside a span named `name`, child of the innermost open span.
  template <class Fn>
  void time(std::string_view name, Fn&& fn) {
    const std::size_t idx = records_.size();
    SpanRecord rec;
    rec.name = name;
    rec.id = records_.size() + 1;
    rec.parent = open_.empty() ? 0 : records_[open_.back()].id;
    records_.push_back(std::move(rec));
    open_.push_back(idx);
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    open_.pop_back();
    records_[idx].ts_us =
        std::chrono::duration<double, std::micro>(t0.time_since_epoch()).count();
    records_[idx].wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  }

  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }

  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::uint32_t tid = obs::current_tid();
    for (const SpanRecord& r : records_) {
      std::string line = "{\"ev\":\"span\",\"name\":\"" + jsonl::escape(r.name) + "\"";
      line += ",\"trace\":\"" + obs::span_id_hex(trace_id_) + "\"";
      line += ",\"span\":\"" + obs::span_id_hex(r.id) + "\"";
      line += ",\"parent\":\"" + obs::span_id_hex(r.parent) + "\"";
      line += ",\"tid\":" + std::to_string(tid) + ",\"ts_us\":";
      jsonl::append_number(line, r.ts_us);
      line += ",\"wall_us\":";
      jsonl::append_number(line, r.wall_us);
      line += "}\n";
      std::fwrite(line.data(), 1, line.size(), f);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t trace_id_;
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_;
};

// Untraced runs pass no log: the pieces then run bare.
template <class Fn>
void piece(SpanLog* log, std::string_view name, Fn&& fn) {
  if (log == nullptr) {
    fn();
  } else {
    log->time(name, std::forward<Fn>(fn));
  }
}

// ---- checks ----------------------------------------------------------------

// FNV-1a over every field of the component results, doubles by their
// bits: equal digests mean byte-identical results.
std::uint64_t digest(const std::vector<attack::ComponentResult>& results) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  const auto mixd = [&mix](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  for (const auto& r : results) {
    mix(r.sign);
    mix(r.exponent);
    mix(r.x0);
    mix(r.x1);
    mix(r.bits);
    for (const attack::PhaseOutcome* p : {&r.sign_phase, &r.exp_phase, &r.low_extend,
                                          &r.low_prune, &r.high_extend, &r.high_prune}) {
      mix(p->value);
      mixd(p->score);
      mixd(p->score_sd);
      mix(p->top.size());
      for (const auto& s : p->top) {
        mix(s.guess);
        mixd(s.score);
      }
    }
  }
  return h;
}

// What a recovery produced, however it was driven.
struct Recovery {
  std::vector<std::int32_t> f;
  std::vector<std::int32_t> g;  // derived from the recovered f by forge_key
  std::size_t components_correct = 0;
  bool forgery_verified = false;
  std::uint64_t digest = 0;  // pre-repair component results; 0 = not exposed
};

// Empty when the recovery is complete: f equal to the victim's and a
// forged signature accepted by the victim's public key. (A component may
// miss low mantissa bits and still round to the exact f.)
std::string check_recovery(const falcon::KeyPair& victim, const Recovery& rec) {
  if (rec.f != victim.sk.f) {
    return "recovered f differs from the victim's (" + std::to_string(rec.components_correct) +
           "/" + std::to_string(victim.sk.params.n) + " components exact)";
  }
  if (!rec.forgery_verified) return "forged signature rejected by the victim's public key";
  return {};
}

// A pristine capture must leave an archive with no CRC failures.
std::string check_archive(const std::string& path) {
  tracestore::VerifyReport rep;
  std::string err;
  if (!tracestore::verify_archive(path, rep, &err)) return "archive unreadable: " + err;
  if (!rep.clean()) {
    return "archive damaged: " + std::to_string(rep.chunks_corrupt) + " CRC failures";
  }
  return {};
}

double file_mib(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---- the workloads' pieces -------------------------------------------------

falcon::KeyPair make_victim(unsigned logn) {
  ChaCha20Prng rng(kVictimSeed);
  return falcon::keygen(logn, rng);
}

attack::KeyRecoveryConfig attack_config(const Shape& sh, std::uint64_t seed) {
  attack::KeyRecoveryConfig atk;
  atk.num_traces = sh.queries;
  atk.device.noise_sigma = sh.sigma;
  atk.seed = seed;
  return atk;
}

// The capture run_recovery_pipeline and run_fleet perform for `atk`.
sca::ShardedCampaignConfig campaign_config(const Shape& sh,
                                           const attack::KeyRecoveryConfig& atk) {
  sca::ShardedCampaignConfig camp;
  camp.base.num_traces = atk.num_traces;
  camp.base.device = atk.device;
  camp.base.seed = atk.seed;
  camp.num_shards = sh.capture_shards;
  return camp;
}

std::string capture(const Shape& sh, const falcon::KeyPair& victim,
                    const attack::KeyRecoveryConfig& atk, const std::string& archive) {
  const auto res = sca::run_campaign_sharded(victim.sk, campaign_config(sh, atk), archive,
                                             nullptr);
  return res.ok ? std::string() : "capture failed: " + res.error;
}

// assemble -> forge -> sign/verify, shared by every recovery driven from
// this file. `results` is repaired in place by assemble_row.
void finish_recovery(const falcon::KeyPair& victim, const attack::KeyRecoveryConfig& atk,
                     std::vector<attack::ComponentResult>& results, Recovery& rec,
                     SpanLog* log) {
  attack::RowAssembly assembled;
  piece(log, "attack.assemble", [&] {
    assembled = attack::assemble_row(results, victim.sk.params.logn, /*row=*/0);
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    rec.components_correct += assembled.recovered[i].bits() == victim.sk.b01[i].bits();
  }
  rec.f = assembled.poly;
  std::optional<falcon::SecretKey> forged;
  piece(log, "forge.key", [&] { forged = attack::forge_key(rec.f, victim.pk); });
  if (!forged) return;
  rec.g = forged->g;
  piece(log, "forge.verify", [&] {
    ChaCha20Prng rng(atk.seed ^ kForgeSalt);
    const auto sig = falcon::sign(*forged, kForgeMessage, rng);
    rec.forgery_verified = falcon::verify(victim.pk, kForgeMessage, sig);
  });
}

// paper16's timed re-attack: archive -> forged key through the gated
// all-component attack (one archive scan).
std::string reattack(const falcon::KeyPair& victim, const attack::KeyRecoveryConfig& atk,
                     const std::string& archive, Recovery& rec) {
  const std::size_t n = victim.sk.params.n;
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<attack::ComponentResult> results;
  std::vector<std::size_t> accepted;
  std::string err;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(victim.sk, atk, 0, ci.slot, ci.imag);
  };
  if (!attack::attack_components_gated(archive, attack::QualityConfig{}, config_for, nullptr,
                                       all, results, accepted, nullptr, &err)) {
    return "attack failed: " + err;
  }
  rec.digest = digest(results);
  finish_recovery(victim, atk, results, rec, nullptr);
  return {};
}

// CPA cells (guesses x traces x sample columns) attack_component scans
// for one component, phase by phase (extend_prune.cpp's run_scan calls).
double scan_cells(const attack::ComponentResult& r, const attack::ComponentAttackConfig& cac,
                  std::size_t traces) {
  const double low = cac.low_candidates.empty() ? double(std::size_t{1} << 25)
                                                : double(cac.low_candidates.size());
  const double high = cac.high_candidates.empty() ? double(std::size_t{1} << 27)
                                                  : double(cac.high_candidates.size());
  const double exps = cac.exp_max - cac.exp_min + 1;
  const double guess_cols = 2 * 2 + exps * 2 + low * 4 + double(r.low_extend.top.size()) * 2 +
                            high * 4 + double(r.high_extend.top.size()) * 4;
  return guess_cols * double(traces);
}

// What the trace decomposition measures besides its spans.
struct Decomposition {
  Recovery rec;
  std::vector<double> component_ms;
  double cells = 0.0;
};

// run_recovery_pipeline's capture -> gated attack -> assemble -> forge,
// split into the public calls it is made of, one span each.
std::string decompose_pipeline(const Shape& sh, const falcon::KeyPair& victim,
                               const attack::KeyRecoveryConfig& atk, const std::string& archive,
                               SpanLog& log, Decomposition& out) {
  const std::size_t n = victim.sk.params.n;
  const std::size_t hn = n / 2;
  std::string err;
  log.time("pipeline", [&] {
    log.time("sca.capture", [&] { err = capture(sh, victim, atk, archive); });
    if (!err.empty()) return;
    std::vector<sca::TraceSet> sets;
    unsigned jitter_max = 0;
    log.time("attack.load", [&] {
      tracestore::ArchiveReader reader;
      std::vector<std::size_t> slots(hn);
      std::iota(slots.begin(), slots.end(), 0);
      if (!reader.open(archive) || !sca::load_trace_sets_for(reader, slots, sets)) {
        err = "archive load failed: " + reader.error();
      }
      jitter_max = reader.meta().jitter_max;
    });
    if (!err.empty()) return;
    std::vector<attack::ComponentResult> results(n);
    for (std::size_t idx = 0; idx < n; ++idx) {
      const attack::ComponentIndex ci = attack::component_index(idx, hn);
      sca::TraceSet set;
      log.time("attack.screen", [&] {
        set = sets[ci.slot];
        (void)attack::screen_trace_set(set, attack::QualityConfig{}, jitter_max);
      });
      attack::ComponentAttackConfig cac;
      log.time("attack.candidates", [&] {
        cac = attack::component_attack_config(victim.sk, atk, 0, ci.slot, ci.imag);
      });
      attack::ComponentDataset ds;
      log.time("attack.dataset", [&] { ds = attack::build_component_dataset(set, ci.imag); });
      log.time("attack.component", [&] { results[idx] = attack::attack_component(ds, cac); });
      out.component_ms.push_back(log.records().back().wall_us / 1e3);
      out.cells += scan_cells(results[idx], cac, ds.num_traces);
    }
    out.rec.digest = digest(results);
    finish_recovery(victim, atk, results, out.rec, &log);
  });
  return err;
}

// extend25's set-up: 24 synthetic captures of the paper's coefficient
// (bench_util.h plants it as the secret operand of the window the signer
// computes) and the attack config with the low half left exhaustive.
struct ExtendInput {
  sca::TraceSet set;
  attack::ComponentDataset ds;
  attack::ComponentAttackConfig cac;
};

constexpr double kPaperCoefficientIm = -31337.75;  // bench_fig4_correlation's co-resident im part

attack::ComponentAttackConfig extend_config(const Shape& sh, std::uint64_t seed) {
  const auto split = attack::KnownOperand::from(fpr::Fpr::from_bits(bench::kPaperCoefficient));
  attack::ComponentAttackConfig cac;
  if (sh.extend_space != 0) {
    // Smoke size: an aligned window of the low space around the truth.
    const std::uint32_t base = split.y0 & ~static_cast<std::uint32_t>(sh.extend_space - 1);
    cac.low_candidates.resize(sh.extend_space);
    std::iota(cac.low_candidates.begin(), cac.low_candidates.end(), base);
  }
  cac.high_candidates = attack::MantissaCandidates::adversarial(
      split.y1, /*high=*/true, attack::KeyRecoveryConfig{}.adversarial_random, seed ^ 0x41);
  return cac;
}

ExtendInput extend_input(const Shape& sh, std::uint64_t seed) {
  sca::DeviceConfig dev;
  dev.noise_sigma = sh.sigma;
  ExtendInput in;
  in.set = bench::synthetic_coefficient_campaign(
      fpr::Fpr::from_bits(bench::kPaperCoefficient), fpr::Fpr::from_double(kPaperCoefficientIm),
      sh.queries, dev, sh.logn, seed);
  in.ds = attack::build_component_dataset(in.set, /*imag_part=*/false);
  in.cac = extend_config(sh, seed);
  return in;
}

std::string check_extend(const attack::ComponentResult& r) {
  if (r.bits == bench::kPaperCoefficient) return {};
  char buf[96];
  std::snprintf(buf, sizeof buf, "extend recovered 0x%016llX",
                static_cast<unsigned long long>(r.bits));
  return buf;
}

attack::RecoveryPipelineConfig pipeline_config(const Shape& sh,
                                               const attack::KeyRecoveryConfig& atk,
                                               const std::string& archive) {
  attack::RecoveryPipelineConfig cfg;
  cfg.attack = atk;
  cfg.capture_shards = sh.capture_shards;
  cfg.archive_path = archive;
  cfg.keep_archive = true;  // verified for CRC failures, then removed
  return cfg;
}

std::string check_pipeline(const attack::RecoveryPipelineResult& res) {
  if (!res.ok) return "pipeline failed: " + res.error;
  if (res.partial) return "pipeline run partial";
  return {};
}

Recovery pipeline_recovery(const attack::RecoveryPipelineResult& res) {
  return {res.recovery.recovered_f, res.recovery.derived_g, res.recovery.components_correct,
          res.recovery.forgery_verified};
}

fleet::FleetConfig fleet_config(const Shape& sh, const attack::KeyRecoveryConfig& atk,
                                const std::string& archive) {
  fleet::FleetConfig fc;
  fc.pipeline.attack = atk;
  fc.pipeline.capture_shards = sh.capture_shards;
  fc.pipeline.archive_path = archive;
  fc.pipeline.keep_archive = true;  // verified for CRC failures, then removed
  fc.logn = sh.logn;
  fc.victim_seed = kVictimSeed;
  fc.workers = 2;
  fc.worker_binary = FD_ATTACK_BIN;
  return fc;
}

std::string check_fleet(const fleet::FleetResult& res) {
  if (!res.ok) return "fleet failed: " + res.error;
  if (res.partial) return "fleet run partial";
  if (res.worker_deaths != 0 || res.reassignments != 0) {
    return std::to_string(res.worker_deaths) + " worker deaths, " +
           std::to_string(res.reassignments) + " reassignments";
  }
  return {};
}

Recovery fleet_recovery(const fleet::FleetResult& res) {
  return {res.recovery.recovered_f, res.recovery.derived_g, res.recovery.components_correct,
          res.recovery.forgery_verified, digest(res.results)};
}

double peak_rss_mib(bool with_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (with_children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib += kids.ru_maxrss;  // the largest fleet worker
  }
  return static_cast<double>(kib) / 1024.0;
}

// ---- one run ---------------------------------------------------------------

// Raw samples of one process; run.py derives the metrics.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> recover_s;
  std::vector<double> capture_s;
  std::vector<double> reattack_s;
  std::size_t attempted = 0;  // timed operations
  std::size_t failed = 0;     // ... that failed a check
  std::vector<std::string> errors;  // every failed check, operations' included
  double peak_rss_mib = 0.0;
  std::map<std::string, double> layers;  // --trace only

  void record(const std::string& err) {
    ++attempted;
    if (err.empty()) return;
    ++failed;
    errors.push_back(err);
  }
};

struct Setup {
  std::optional<falcon::KeyPair> victim;
  std::optional<ExtendInput> extend;
};

// Set-up runs untimed for `warm_up_s` first: a fresh process on an idle
// core runs measurably slower for about a second (FALCON-512 keygen: 440
// ms cold, 295 ms warm). Then it is timed at least 3 times and until half
// a second has gone, so the sub-millisecond ones (FALCON-16 keygen,
// extend25) report a median over many repeats.
Setup set_up(const Shape& sh, std::uint64_t seed, double warm_up_s, Samples& s, SpanLog* log) {
  Setup st;
  const auto make = [&](SpanLog* span_log) {
    if (sh.kind == Kind::kExtend) {
      piece(span_log, "sca.synthetic_campaign", [&] { st.extend = extend_input(sh, seed); });
    } else {
      piece(span_log, "falcon.keygen", [&] { st.victim = make_victim(sh.logn); });
    }
  };
  const auto w0 = Clock::now();
  while (seconds_since(w0) < warm_up_s) make(nullptr);
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < 3 || (rep < 200 && seconds_since(t0) < 0.5); ++rep) {
    const auto t = Clock::now();
    make(log);
    s.setup_s.push_back(seconds_since(t));
  }
  return st;
}

// One timed operation of a workload (for capture-once workloads: one
// capture and its re-attacks), checked; failed ones add no time sample.
void timed_op(const Shape& sh, const Setup& st, std::uint64_t seed, const std::string& archive,
              Samples& s) {
  const attack::KeyRecoveryConfig atk = attack_config(sh, seed);
  switch (sh.kind) {
    case Kind::kPipeline: {
      const auto t = Clock::now();
      const auto res = attack::run_recovery_pipeline(*st.victim, pipeline_config(sh, atk, archive));
      const double secs = seconds_since(t);
      std::string err = check_pipeline(res);
      if (err.empty()) err = check_recovery(*st.victim, pipeline_recovery(res));
      if (err.empty()) err = check_archive(archive);
      std::remove(archive.c_str());
      if (err.empty()) s.recover_s.push_back(secs);
      s.record(err);
      return;
    }
    case Kind::kCaptureReattack: {
      auto t = Clock::now();
      std::string err = capture(sh, *st.victim, atk, archive);
      const double capture_secs = seconds_since(t);
      if (err.empty()) err = check_archive(archive);
      std::vector<double> reattacks;
      for (std::size_t r = 0; r < sh.reattacks && err.empty(); ++r) {
        Recovery rec;
        t = Clock::now();
        err = reattack(*st.victim, atk, archive, rec);
        reattacks.push_back(seconds_since(t));
        if (err.empty()) err = check_recovery(*st.victim, rec);
      }
      std::remove(archive.c_str());
      if (err.empty()) {
        std::sort(reattacks.begin(), reattacks.end());
        const double median = reattacks[reattacks.size() / 2];
        s.capture_s.push_back(capture_secs);
        s.reattack_s.insert(s.reattack_s.end(), reattacks.begin(), reattacks.end());
        s.recover_s.push_back(capture_secs + median);
      }
      s.record(err);
      return;
    }
    case Kind::kExtend: {
      const auto t = Clock::now();
      const auto res = attack::attack_component(st.extend->ds, st.extend->cac);
      const double secs = seconds_since(t);
      const std::string err = check_extend(res);
      if (err.empty()) s.recover_s.push_back(secs);
      s.record(err);
      return;
    }
    case Kind::kFleet: {
      const auto t = Clock::now();
      const auto res = fleet::run_fleet(fleet_config(sh, atk, archive));
      const double secs = seconds_since(t);
      std::string err = check_fleet(res);
      if (err.empty()) err = check_recovery(*st.victim, fleet_recovery(res));
      if (err.empty()) err = check_archive(archive);
      std::remove(archive.c_str());
      if (err.empty()) s.recover_s.push_back(secs);
      s.record(err);
      return;
    }
  }
}

Samples run(const Shape& sh, std::uint64_t seed, double seconds, const std::string& work_dir) {
  Samples s;
  const Setup st = set_up(sh, seed, std::min(kWarmUpS, seconds), s, nullptr);
  const std::string archive = work_dir + "/" + sh.name + ".fdtrace";
  const auto t0 = Clock::now();
  std::uint64_t op = 0;
  do {
    timed_op(sh, st, exec::split_seed(seed, op++), archive, s);
  } while (seconds_since(t0) < seconds);
  s.peak_rss_mib = peak_rss_mib(sh.kind == Kind::kFleet);
  return s;
}

// ---- the traced run --------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * double(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// Sums span walls by name over the direct children of the last root
// named `root`, and returns that root's wall (us).
double child_sums(const SpanLog& log, std::string_view root, std::map<std::string, double>& us) {
  const auto& recs = log.records();
  const SpanRecord* top = nullptr;
  for (const SpanRecord& r : recs) {
    if (r.parent == 0 && r.name == root) top = &r;
  }
  if (top == nullptr) return 0.0;
  for (const SpanRecord& r : recs) {
    if (r.parent == top->id) us[r.name] += r.wall_us;
  }
  return top->wall_us;
}

double root_us(const SpanLog& log, std::string_view name) {
  double us = 0.0;
  for (const SpanRecord& r : log.records()) {
    if (r.parent == 0 && r.name == name) us += r.wall_us;
  }
  return us;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    if (out.size() > 1) out += ',';
    out += "\"" + jsonl::escape(name) + "\":";
    jsonl::append_number(out, v);
  }
  return out + "}";
}

// Layer probes, each its own root span: plain signing, leakage synthesis
// (an in-memory campaign minus its signing), archive read and write.
void probe_layers(const Shape& sh, const falcon::KeyPair& victim, std::uint64_t seed,
                  const std::string& archive, SpanLog& log, Samples& s) {
  const std::size_t queries = std::min<std::size_t>(sh.queries, 128);
  log.time("probe.falcon.sign", [&] {
    ChaCha20Prng rng(seed ^ 0x5167);
    for (std::size_t q = 0; q < queries; ++q) {
      (void)falcon::sign(victim.sk, "probe query " + std::to_string(q), rng);
    }
  });
  log.time("probe.sca.campaign", [&] {
    sca::CampaignConfig cfg;
    cfg.num_traces = queries;
    cfg.device.noise_sigma = sh.sigma;
    cfg.seed = seed;
    (void)sca::run_full_campaign(victim.sk, cfg);
  });
  const double sign_ms = root_us(log, "probe.falcon.sign") / 1e3 / double(queries);
  s.layers["falcon.sign_ms"] = sign_ms;
  s.layers["sca.leak_synth_ms"] =
      root_us(log, "probe.sca.campaign") / 1e3 / double(queries) - sign_ms;

  std::size_t records = 0;
  log.time("probe.tracestore.read", [&] {
    tracestore::ArchiveReader reader;
    if (!reader.open(archive)) return;
    std::vector<tracestore::TraceRecord> batch;
    while (true) {
      batch.clear();
      const std::size_t got = reader.next_batch(batch, 1024);
      if (got == 0) break;
      records += got;
    }
  });
  std::vector<tracestore::TraceRecord> all;
  tracestore::ArchiveMeta meta;
  {
    tracestore::ArchiveReader reader;
    if (reader.open(archive)) {
      meta = reader.meta();
      while (reader.next_batch(all, 4096) > 0) {
      }
    }
  }
  const std::string copy = archive + ".rewrite";
  log.time("probe.tracestore.write", [&] {
    tracestore::ArchiveWriter writer;
    if (!writer.open(copy, meta)) return;
    for (const auto& rec : all) {
      if (!writer.append(rec)) break;
    }
    (void)writer.close();
  });
  const double mib = file_mib(copy);
  std::remove(copy.c_str());
  const double read_s = root_us(log, "probe.tracestore.read") / 1e6;
  const double write_s = root_us(log, "probe.tracestore.write") / 1e6;
  s.layers["tracestore.read_s"] = read_s;
  s.layers["tracestore.read_us_per_record"] = records == 0 ? 0.0 : read_s * 1e6 / double(records);
  s.layers["tracestore.write_s"] = write_s;
  s.layers["tracestore.write_mib_s"] = write_s > 0.0 ? mib / write_s : 0.0;
  s.layers["tracestore.archive_mib"] = mib;
  if (records != all.size()) s.errors.push_back("archive read probe saw a different stream");
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// The untraced reference (one timed op through the public entry point,
// whose recovery the decomposition must reproduce exactly), then the
// decomposition, then the probes.
Samples trace(const Shape& sh, std::uint64_t seed, double seconds, const std::string& work_dir,
              const std::string& out_dir) {
  Samples s;
  SpanLog log(exec::mix64(seed ^ 0x54524143ULL));
  const Setup st = set_up(sh, seed, std::min(kWarmUpS, seconds), s, &log);
  const std::string archive = work_dir + "/" + sh.name + ".fdtrace";
  const std::uint64_t op_seed = exec::split_seed(seed, 0);
  const attack::KeyRecoveryConfig atk = attack_config(sh, op_seed);

  // Reference.
  Recovery ref;
  std::string err;
  const std::uint64_t scans0 = counter("attack.archive.scans");
  auto t = Clock::now();
  switch (sh.kind) {
    case Kind::kPipeline: {
      const auto res = attack::run_recovery_pipeline(*st.victim, pipeline_config(sh, atk, archive));
      std::remove(archive.c_str());
      err = check_pipeline(res);
      ref = pipeline_recovery(res);
      break;
    }
    case Kind::kCaptureReattack:
      err = capture(sh, *st.victim, atk, archive);
      if (err.empty()) err = reattack(*st.victim, atk, archive, ref);
      std::remove(archive.c_str());
      break;
    case Kind::kExtend: {
      const auto res = attack::attack_component(st.extend->ds, st.extend->cac);
      err = check_extend(res);
      ref.digest = digest({res});
      break;
    }
    case Kind::kFleet: {
      const auto res = fleet::run_fleet(fleet_config(sh, atk, archive));
      std::remove(archive.c_str());
      err = check_fleet(res);
      ref = fleet_recovery(res);
      for (const auto& stage : res.stages) {
        if (stage.name == "spawn" || stage.name == "capture" || stage.name == "attack") {
          s.layers["fleet." + stage.name + "_s"] = stage.wall_ms / 1e3;
        }
      }
      s.layers["fleet.attack_shards"] = double(res.attack_shards);
      s.layers["fleet.worker_deaths"] = double(res.worker_deaths);
      s.layers["fleet.reassignments"] = double(res.reassignments);
      s.layers["attack.archive_scans"] = double(res.archive_scans);
      break;
    }
  }
  const double ref_s = seconds_since(t);
  if (sh.kind != Kind::kFleet) {
    s.layers["attack.archive_scans"] = double(counter("attack.archive.scans") - scans0);
  }
  if (err.empty() && sh.kind != Kind::kExtend) err = check_recovery(*st.victim, ref);
  if (err.empty()) s.recover_s.push_back(ref_s);
  s.record(err);

  // Decomposition.
  const std::uint64_t cands0 = counter("attack.ep.candidates");
  Decomposition dec;
  if (sh.kind == Kind::kExtend) {
    attack::ComponentResult res;
    log.time("pipeline", [&] {
      attack::ComponentDataset ds;
      log.time("attack.dataset",
               [&] { ds = attack::build_component_dataset(st.extend->set, false); });
      attack::ComponentAttackConfig cac;
      log.time("attack.candidates", [&] { cac = extend_config(sh, seed); });
      log.time("attack.component", [&] { res = attack::attack_component(ds, cac); });
      dec.component_ms.push_back(log.records().back().wall_us / 1e3);
      dec.cells = scan_cells(res, cac, ds.num_traces);
    });
    err = check_extend(res);
    dec.rec.digest = digest({res});
  } else {
    err = decompose_pipeline(sh, *st.victim, atk, archive, log, dec);
    if (err.empty()) err = check_recovery(*st.victim, dec.rec);
    if (err.empty()) err = check_archive(archive);
  }
  // Byte-identity with the reference: per-component results where the
  // entry point exposes them, the recovered key where it does not.
  if (err.empty() && ref.digest != 0 && dec.rec.digest != ref.digest) {
    err = "traced component results differ from the untraced run's";
  }
  if (err.empty() && sh.kind != Kind::kExtend && (dec.rec.f != ref.f || dec.rec.g != ref.g)) {
    err = "traced recovery differs from the untraced run's";
  }
  s.record(err);

  std::map<std::string, double> us;
  const double pipeline_us = child_sums(log, "pipeline", us);
  double children_us = 0.0;
  for (const auto& [name, v] : us) children_us += v;
  for (const auto& [name, v] : us) s.layers[name + "_s"] = v / 1e6;
  s.layers["attack.component_p50_ms"] = percentile(dec.component_ms, 50);
  s.layers["attack.component_p98_ms"] = percentile(dec.component_ms, 98);
  s.layers["attack.scan_ns_per_cell"] =
      dec.cells > 0 ? us["attack.component"] * 1e3 / dec.cells : 0.0;
  s.layers["attack.ep_candidates"] = double(counter("attack.ep.candidates") - cands0);
  s.layers["trace.unattributed_pct"] =
      pipeline_us > 0 ? 100.0 * (pipeline_us - children_us) / pipeline_us : 0.0;
  s.layers["trace.overhead_pct"] = 100.0 * (pipeline_us / 1e6 - ref_s) / ref_s;
  std::vector<double> keygen;
  for (const SpanRecord& r : log.records()) {
    if (r.name == "falcon.keygen") keygen.push_back(r.wall_us / 1e6);
  }
  if (!keygen.empty()) s.layers["falcon.keygen_s"] = percentile(keygen, 50);
  if (us.count("sca.capture") != 0) {
    s.layers["sca.capture_qps"] = double(sh.queries) / (us["sca.capture"] / 1e6);
    probe_layers(sh, *st.victim, seed, archive, log, s);
  }
  std::remove(archive.c_str());
  if (s.layers["trace.unattributed_pct"] > 5.0) {
    s.errors.push_back("pipeline span has more than 5% unattributed time");
  }

  std::filesystem::create_directories(out_dir);
  if (!log.write_jsonl(out_dir + "/spans.jsonl")) s.errors.push_back("cannot write spans.jsonl");
  const std::string layers = "{\"workload\":\"" + std::string(sh.name) + "\",\"seed\":" +
                             std::to_string(seed) + ",\"layers\":" + json_object(s.layers) +
                             "}\n";
  std::FILE* f = std::fopen((out_dir + "/layers.json").c_str(), "wb");
  if (f == nullptr || std::fwrite(layers.data(), 1, layers.size(), f) != layers.size() ||
      std::fclose(f) != 0) {
    s.errors.push_back("cannot write layers.json");
  }
  return s;
}

// ---- output ----------------------------------------------------------------

void append_list(std::string& out, const char* key, const std::vector<double>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    jsonl::append_number(out, v[i]);
  }
  out += ']';
}

std::string to_json(const Shape& sh, std::uint64_t seed, bool traced, const Samples& s) {
  std::string out = "{\"workload\":\"" + std::string(sh.name) + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"mode\":\"";
  out += traced ? "trace" : "run";
  out += "\",\"kernel\":\"";
  out += attack::cpa_simd_name(attack::cpa_active_simd());
  out += "\",\"obs\":" + std::to_string(FD_OBS_ENABLED);
  out += ",\"attempted\":" + std::to_string(s.attempted);
  out += ",\"failed\":" + std::to_string(s.failed);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < s.errors.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + jsonl::escape(s.errors[i]) + "\"";
  }
  out += ']';
  append_list(out, "setup_s", s.setup_s);
  append_list(out, "recover_s", s.recover_s);
  append_list(out, "capture_s", s.capture_s);
  append_list(out, "reattack_s", s.reattack_s);
  out += ",\"peak_rss_mib\":";
  jsonl::append_number(out, s.peak_rss_mib);
  out += ",\"layers\":" + json_object(s.layers) + "}";
  return out;
}

// Every workload at toy size, untraced and traced: the ctest entry.
int smoke(const std::string& work_dir) {
  int failures = 0;
  for (const Shape& sh : kSmokeShapes) {
    const Samples plain = run(sh, 1, 0.0, work_dir);
    const Samples traced = trace(sh, 1, 0.0, work_dir, work_dir + "/trace-" + sh.name);
    for (const Samples* s : {&plain, &traced}) {
      std::printf("%-9s %-5s attempted %zu failed %zu\n", sh.name,
                  s == &plain ? "run" : "trace", s->attempted, s->errors.size());
      for (const std::string& e : s->errors) std::printf("  %s\n", e.c_str());
      failures += static_cast<int>(s->errors.size());
      if (s->attempted == 0) ++failures;
    }
  }
  std::printf("smoke: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_paper --workload f512|paper16|extend25|fleet256 --seed N\n"
               "                   --seconds S --work-dir DIR [--trace OUT_DIR]\n"
               "       bench_paper --smoke --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  std::string trace_dir;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      smoke_mode = true;
    } else if (v == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--work-dir") {
      work_dir = argv[++i];
    } else if (arg == "--trace") {
      trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (work_dir.empty()) return usage();
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_paper: cannot create %s\n", work_dir.c_str());
    return 2;
  }
  if (smoke_mode) return smoke(work_dir);

  const Shape* shape = nullptr;
  for (const Shape& sh : kShapes) {
    if (workload == sh.name) shape = &sh;
  }
  if (shape == nullptr || seconds < 0.0) return usage();
  const Samples s = trace_dir.empty() ? run(*shape, seed, seconds, work_dir)
                                      : trace(*shape, seed, seconds, work_dir, trace_dir);
  for (const std::string& e : s.errors) std::fprintf(stderr, "bench_paper: %s\n", e.c_str());
  std::printf("%s\n", to_json(*shape, seed, !trace_dir.empty(), s).c_str());
  return s.errors.empty() ? 0 : 1;
}
