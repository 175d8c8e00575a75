// fd-attack: end-to-end key recovery from the command line.
//
//   fd-attack recover [--logn N] [--traces N] [--threads N] [--shards N]
//                     [--sigma F] [--seed 0xN] [--archive PATH]
//                     [--keep-archive] [--json] [--batch N] [--cpa-shards N]
//                     [--backend cpa|template|lr] [--profile-traces N]
//                     [--profile-seed 0xN] [--fault-plan SPEC] [--adaptive]
//                     [--checkpoint] [--resume] [--checkpoint-every N]
//
// Runs the staged recovery pipeline (sharded capture -> parallel
// per-component attack -> assemble -> NTRU solve + forgery) against a
// freshly generated victim key. The result is a pure function of
// (--logn, --traces, --shards, --sigma, --seed): --threads changes wall
// time only (see DESIGN.md section 9), which makes this binary the
// canonical way to drive the attack at every core count. Exit 0 iff the
// forged signature verifies under the victim's public key.
//
// Performance (DESIGN.md section 11): --batch sets the CPA kernel's
// trace batch (1 = the naive per-trace reference fold; batch changes
// correlations only at the ULP level but is part of the experiment
// hash). Each attack round demuxes its slots in one archive scan;
// --checkpoint --checkpoint-every N splits it into batches of N
// components, which bounds the slots held resident at once.
//
// Backends (DESIGN.md section 14): --backend selects the per-component
// distinguisher. `cpa` (default) is the paper's non-profiled Pearson
// engine and leaves every pre-existing code path untouched; `template`
// and `lr` first run a deterministic profiling campaign on a clone
// device keyed by --profile-seed / --profile-traces, then score guesses
// with pooled-covariance Gaussian templates or learned logistic heads.
// The selection is part of the experiment hash, the checkpoint header,
// and the fleet session config, so --resume and --fleet round-trip it.
//
// Robustness (DESIGN.md section 10): --fault-plan injects the
// deterministic rig-failure plan of sca/faults.h (and arms the trace
// quality gate plus adaptive re-measurement, since a faulted capture is
// what they exist for); --adaptive turns on confidence gating alone;
// --checkpoint persists .fdckpt progress beside the archive and
// --resume picks a killed run back up bit-identically. SIGTERM/SIGINT
// stop the run at the next batch boundary after writing a final
// checkpoint (exit 130); a second signal exits immediately.
//
// Fleet mode (DESIGN.md section 12): --fleet N shards the same
// experiment across N `fd-attack --worker` subprocesses; the recovered
// key is bit-identical to the single-process run at any N. --telemetry
// writes the unified obs JSONL stream (worker lines tagged with
// "worker":id) that `fd-report --follow` tails live. `--worker` is the
// internal subprocess entry: the protocol runs on stdin/stdout and
// nothing else may print there.
//
// Multi-machine fleet (DESIGN.md section 15): `fd-attack --serve
// addr:port` turns this binary into a standing remote worker -- a TCP
// accept loop around the same protocol, guarded by a --token handshake,
// staging files under --work-dir. The coordinator side joins remote
// workers into the shard plan with repeatable --remote host:port flags
// (combinable with --fleet N locals; `--fleet` may be omitted for a
// remote-only fleet). --net-fault arms the deterministic network-fault
// plan on every remote connection -- the recovered key must not change.

#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "distinguisher/component_scorer.h"
#include "falcon/falcon.h"
#include "fleet/coordinator.h"
#include "fleet/net_faults.h"
#include "fleet/transport.h"
#include "fleet/worker.h"
#include "obs/jsonl.h"
#include "obs/profile.h"
#include "obs/sink.h"

using namespace fd;
namespace jsonl = fd::obs::jsonl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fd-attack recover [--logn N] [--traces N] [--threads N]\n"
               "                         [--shards N] [--sigma F] [--seed 0xN]\n"
               "                         [--archive PATH] [--keep-archive] [--json]\n"
               "                         [--batch N] [--cpa-shards N]\n"
               "                         [--backend cpa|template|lr] [--profile-traces N]\n"
               "                         [--profile-seed 0xN]\n"
               "                         [--fault-plan SPEC] [--adaptive] [--checkpoint]\n"
               "                         [--resume] [--checkpoint-every N]\n"
               "                         [--fleet N] [--telemetry PATH]\n"
               "                         [--remote HOST:PORT]... [--token T]\n"
               "                         [--net-fault NSPEC]\n"
               "       fd-attack --serve HOST:PORT [--token T] [--work-dir D]\n"
               "                 [--port-file PATH]\n"
               "  SPEC: comma-separated key=value, e.g.\n"
               "        drop=0.1,desync=0.05,sat=0.02,glitch=0.01,chunk=0.02,fail=0.25\n"
               "  NSPEC: wdisc=0.05,rdisc=0.02,stall=0.05,stallms=2,short=0.3,\n"
               "         corrupt=0.02,refuse=0.1,refuse_after=2,seed=0x9E7F\n");
  return 2;
}

// SIGTERM/SIGINT: first signal asks the pipeline to stop at the next
// batch boundary (final checkpoint + pipeline.interrupted event); a
// second signal means "now" and exits without cleanup.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_interrupt(int) {
  if (g_interrupted != 0) _exit(130);
  g_interrupted = 1;
}

// The coordinator re-execs this binary as its worker; /proc/self/exe is
// exact even when argv[0] came from PATH lookup.
std::string self_binary(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0;
}

struct Options {
  unsigned logn = 5;
  std::size_t traces = 900;
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::size_t cpa_shards = 1;
  double sigma = 2.0;
  std::uint64_t seed = 0xDE40;
  std::string archive = "fd_attack_campaign.fdtrace";
  bool keep_archive = false;
  bool json = false;
  std::size_t batch = attack::kDefaultCpaBatch;
  distinguisher::BackendSelection backend;
  std::string fault_plan;
  bool adaptive = false;
  bool checkpoint = false;
  bool resume = false;
  std::size_t checkpoint_every = 8;
  std::size_t fleet = 0;  // 0 = single-process pipeline
  bool fleet_set = false;
  std::string telemetry;
  std::vector<fleet::RemoteEndpoint> remotes;
  std::string token = "fd-fleet";
  std::string net_fault;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--keep-archive") {
      opt.keep_archive = true;
    } else if (arg == "--logn") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.logn = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--traces") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.traces = std::strtoull(v, nullptr, 0);
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.threads = std::strtoull(v, nullptr, 0);
    } else if (arg == "--shards") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.shards = std::strtoull(v, nullptr, 0);
    } else if (arg == "--sigma") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.sigma = std::strtod(v, nullptr);
      if (!std::isfinite(opt.sigma)) return false;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--archive") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.archive = v;
    } else if (arg == "--batch") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.batch = std::strtoull(v, nullptr, 0);
    } else if (arg == "--cpa-shards") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.cpa_shards = std::strtoull(v, nullptr, 0);
    } else if (arg == "--backend") {
      const char* v = value();
      if (v == nullptr || !distinguisher::parse_backend(v, opt.backend.backend)) return false;
    } else if (arg == "--profile-traces") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.backend.profile_traces = std::strtoull(v, nullptr, 0);
    } else if (arg == "--profile-seed") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.backend.profile_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--fault-plan") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.fault_plan = v;
    } else if (arg == "--adaptive") {
      opt.adaptive = true;
    } else if (arg == "--checkpoint") {
      opt.checkpoint = true;
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--checkpoint-every") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.checkpoint_every = std::strtoull(v, nullptr, 0);
    } else if (arg == "--fleet") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.fleet = std::strtoull(v, nullptr, 0);
      opt.fleet_set = true;
    } else if (arg == "--remote") {
      const char* v = value();
      if (v == nullptr) return false;
      fleet::RemoteEndpoint ep;
      if (!fleet::parse_endpoint(v, ep.host, ep.port)) {
        std::fprintf(stderr, "fd-attack: bad --remote endpoint '%s'\n", v);
        return false;
      }
      opt.remotes.push_back(std::move(ep));
    } else if (arg == "--token") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.token = v;
    } else if (arg == "--net-fault") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.net_fault = v;
    } else if (arg == "--telemetry") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.telemetry = v;
    } else {
      std::fprintf(stderr, "fd-attack: unknown option '%s'\n", std::string(arg).c_str());
      return false;
    }
  }
  if (opt.fleet_set && opt.fleet == 0 && opt.remotes.empty()) return false;
  return opt.logn >= 1 && opt.logn <= 10 && opt.traces > 0 && opt.threads > 0 &&
         opt.shards > 0 && opt.cpa_shards > 0 && opt.batch > 0 &&
         opt.backend.profile_traces > 0;
}

// Appends "key":value to a flat JSON object's body; `value` is already
// JSON (a number, a literal or a quoted string).
void json_field(std::string& buf, std::string_view key, const std::string& value) {
  if (!buf.empty()) buf += ',';
  buf += '"';
  buf += jsonl::escape(key);
  buf += "\":";
  buf += value;
}

// The --json body of a recovery, the same in both modes: the echoed
// knobs, the driver's gate, re-measurement and flag counts, the outcome,
// and one stage_<name>_ms per stage.
std::string recovery_json(const Options& opt, std::size_t n,
                          const attack::RecoveryPipelineResult& res) {
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  std::string buf;
  json_field(buf, "n", std::to_string(n));
  json_field(buf, "traces", std::to_string(opt.traces));
  json_field(buf, "shards", std::to_string(opt.shards));
  json_field(buf, "threads", std::to_string(opt.threads));
  json_field(buf, "cpa_batch", std::to_string(opt.batch));
  json_field(buf, "cpa_shards", std::to_string(opt.cpa_shards));
  json_field(buf, "backend",
             '"' + std::string(distinguisher::backend_name(opt.backend.backend)) + '"');
  json_field(buf, "records", std::to_string(res.captured_records));
  json_field(buf, "components_correct", std::to_string(res.recovery.components_correct));
  json_field(buf, "components_total", std::to_string(res.recovery.components_total));
  json_field(buf, "f_exact", flag(res.recovery.f_exact));
  json_field(buf, "quality_screened", std::to_string(res.quality.total));
  json_field(buf, "quality_accepted", std::to_string(res.quality.accepted));
  json_field(buf, "quality_rejected_saturated", std::to_string(res.quality.rejected_saturated));
  json_field(buf, "quality_rejected_energy", std::to_string(res.quality.rejected_energy));
  json_field(buf, "quality_rejected_alignment", std::to_string(res.quality.rejected_alignment));
  json_field(buf, "quality_realigned", std::to_string(res.quality.realigned));
  json_field(buf, "capture_attempts", std::to_string(res.capture_attempts));
  json_field(buf, "remeasure_rounds", std::to_string(res.remeasure_rounds));
  json_field(buf, "flagged_components", std::to_string(res.flagged_components.size()));
  json_field(buf, "partial", flag(res.partial));
  json_field(buf, "resumed", flag(res.resumed));
  json_field(buf, "ntru_solved", flag(res.recovery.ntru_solved));
  json_field(buf, "forgery_verified", flag(res.recovery.forgery_verified));
  for (const auto& stage : res.stages) {
    std::string ms;
    jsonl::append_number(ms, stage.wall_ms);
    json_field(buf, "stage_" + stage.name + "_ms", ms);
  }
  return buf;
}

// The text report of a recovery, the same in both modes; a fleet run
// adds its mechanics after the captured-record count.
void print_recovery(const attack::RecoveryPipelineResult& res, const fleet::FleetResult* fleet) {
  for (const auto& stage : res.stages) {
    std::printf("  stage %-9s %s (%.1f ms)\n", stage.name.c_str(),
                stage.ran ? "done" : "skipped", stage.wall_ms);
  }
  std::printf("captured records: %zu\n", res.captured_records);
  if (fleet != nullptr) {
    std::printf("fleet: %zu spawned, %zu died, %zu reassignment%s, %zu attack shard%s\n",
                fleet->workers_spawned, fleet->worker_deaths, fleet->reassignments,
                fleet->reassignments == 1 ? "" : "s", fleet->attack_shards,
                fleet->attack_shards == 1 ? "" : "s");
    if (fleet->remote_workers > 0) {
      std::printf("remote: %zu worker%s, %zu reconnect%s, %zu staged chunk%s\n",
                  fleet->remote_workers, fleet->remote_workers == 1 ? "" : "s",
                  fleet->reconnects, fleet->reconnects == 1 ? "" : "s", fleet->staged_chunks,
                  fleet->staged_chunks == 1 ? "" : "s");
    }
  }
  if (res.quality.total > 0) {
    std::printf("quality gate: %zu/%zu traces accepted (%zu saturated, %zu energy, "
                "%zu misaligned rejected; %zu realigned)\n",
                res.quality.accepted, res.quality.total, res.quality.rejected_saturated,
                res.quality.rejected_energy, res.quality.rejected_alignment,
                res.quality.realigned);
  }
  if (res.resumed) std::printf("resumed from checkpoint: %s\n", res.checkpoint_path.c_str());
  if (res.remeasure_rounds > 0 || res.capture_attempts > 1) {
    std::printf("adaptive re-measurement: %zu extra round%s, %zu capture attempt%s\n",
                res.remeasure_rounds, res.remeasure_rounds == 1 ? "" : "s",
                res.capture_attempts, res.capture_attempts == 1 ? "" : "s");
  }
  if (res.partial) {
    std::printf("PARTIAL: %zu component%s below the confidence bar at budget end\n",
                res.flagged_components.size(), res.flagged_components.size() == 1 ? "" : "s");
  }
  std::printf("components recovered exactly: %zu / %zu\n", res.recovery.components_correct,
              res.recovery.components_total);
  std::printf("f recovered exactly: %s\n", res.recovery.f_exact ? "YES" : "no");
  std::printf("NTRU equation re-solved: %s\n", res.recovery.ntru_solved ? "YES" : "no");
  std::printf("forged signature verified by victim's PUBLIC key: %s\n",
              res.recovery.forgery_verified ? "YES -- key fully compromised" : "no");
}

// Fleet mode: same experiment, N worker subprocesses, same key.
int run_fleet_main(const Options& opt, const attack::RecoveryPipelineConfig& cfg,
                   const char* argv0) {
  fleet::FleetConfig fc;
  fc.pipeline = cfg;
  fc.logn = opt.logn;
  fc.workers = opt.fleet;
  // Matching the shard size to the pipeline's checkpoint cadence keeps
  // attack.archive.scans identical to a checkpointed single-process run.
  fc.components_per_shard = opt.checkpoint_every;
  fc.worker_binary = self_binary(argv0);
  fc.telemetry_path = opt.telemetry;
  fc.remotes = opt.remotes;
  fc.session_token = opt.token;
  if (!opt.net_fault.empty()) {
    std::string err;
    if (!fleet::parse_net_fault_plan(opt.net_fault, fc.net_faults, err)) {
      std::fprintf(stderr, "fd-attack: %s\n", err.c_str());
      return 2;
    }
  }

  if (!opt.json) {
    std::printf("fd-attack: fleet of %zu local worker%s + %zu remote%s, %zu traces, "
                "%zu thread%s per worker\n",
                opt.fleet, opt.fleet == 1 ? "" : "s", opt.remotes.size(),
                opt.remotes.size() == 1 ? "" : "s", opt.traces, opt.threads,
                opt.threads == 1 ? "" : "s");
  }
  const auto res = fleet::run_fleet(fc);
  if (!res.ok) {
    std::fprintf(stderr, "fd-attack: %s\n", res.error.c_str());
    return 2;
  }
  if (opt.json) {
    // The pipeline's fields, then the fleet mechanics.
    std::string buf = recovery_json(opt, std::size_t{1} << opt.logn, res);
    json_field(buf, "workers", std::to_string(opt.fleet));
    json_field(buf, "workers_spawned", std::to_string(res.workers_spawned));
    json_field(buf, "worker_deaths", std::to_string(res.worker_deaths));
    json_field(buf, "reassignments", std::to_string(res.reassignments));
    json_field(buf, "remote_workers", std::to_string(res.remote_workers));
    json_field(buf, "reconnects", std::to_string(res.reconnects));
    json_field(buf, "staged_chunks", std::to_string(res.staged_chunks));
    json_field(buf, "attack_shards", std::to_string(res.attack_shards));
    std::printf("{%s}\n", buf.c_str());
  } else {
    print_recovery(res, &res);
  }
  return res.recovery.forgery_verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "--worker") {
    // Subprocess entry: the frame protocol owns stdin/stdout.
    return fleet::run_worker(STDIN_FILENO, STDOUT_FILENO);
  }
  if (argc >= 3 && std::string_view(argv[1]) == "--serve") {
    // Remote-worker entry: a TCP accept loop around the worker protocol.
    fleet::ServeConfig sc;
    if (!fleet::parse_endpoint(argv[2], sc.host, sc.port)) {
      std::fprintf(stderr, "fd-attack: bad --serve endpoint '%s'\n", argv[2]);
      return usage();
    }
    for (int i = 3; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
      if (arg == "--token" && v != nullptr) {
        sc.token = v;
        ++i;
      } else if (arg == "--work-dir" && v != nullptr) {
        sc.work_dir = v;
        ++i;
      } else if (arg == "--port-file" && v != nullptr) {
        sc.port_file = v;
        ++i;
      } else {
        std::fprintf(stderr, "fd-attack: unknown --serve option '%s'\n",
                     std::string(arg).c_str());
        return usage();
      }
    }
    return fleet::run_serve(sc);
  }
  if (argc < 2 || std::string_view(argv[1]) != "recover") return usage();
  Options opt;
  if (!parse(argc, argv, opt)) return usage();

  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  {
    // A parent that wants graceful-interrupt semantics from the instant
    // of exec blocks these signals BEFORE exec and relies on us
    // unblocking once the handlers are installed -- a signal sent into
    // that window is delivered here, to the handler, instead of killing
    // the process under the default disposition (the race
    // tests/test_fleet.cpp InterruptCheckpointResume pins).
    sigset_t unblock;
    sigemptyset(&unblock);
    sigaddset(&unblock, SIGTERM);
    sigaddset(&unblock, SIGINT);
    ::sigprocmask(SIG_UNBLOCK, &unblock, nullptr);
  }

  ChaCha20Prng rng("victim key seed");
  const auto victim = falcon::keygen(opt.logn, rng);

  attack::RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = opt.traces;
  cfg.attack.device.noise_sigma = opt.sigma;
  cfg.attack.seed = opt.seed;
  cfg.attack.threads = opt.threads;
  cfg.attack.cpa_batch = opt.batch;
  cfg.attack.cpa_shards = opt.cpa_shards;
  cfg.attack.backend = opt.backend;
  cfg.capture_shards = opt.shards;
  cfg.archive_path = opt.archive;
  cfg.keep_archive = opt.keep_archive;
  if (!opt.fault_plan.empty()) {
    std::string err;
    if (!sca::parse_fault_plan(opt.fault_plan, cfg.faults, &err)) {
      std::fprintf(stderr, "fd-attack: %s\n", err.c_str());
      return 2;
    }
    // A faulted rig is exactly what the gate and the re-measurement
    // controller exist for; arm both alongside the plan.
    cfg.quality.enabled = true;
    cfg.adaptive = true;
  }
  if (opt.adaptive) cfg.adaptive = true;
  cfg.checkpoint = opt.checkpoint;
  cfg.resume = opt.resume;
  cfg.checkpoint_every = opt.checkpoint_every;
  cfg.interrupt_flag = &g_interrupted;

  if (opt.fleet > 0 || !opt.remotes.empty()) return run_fleet_main(opt, cfg, argv[0]);

  // Profiled backends train here; fleet workers rebuild the identical
  // scorer from the BackendSelection in the session config instead.
  cfg.attack.scorer =
      distinguisher::make_component_scorer(cfg.attack.backend, cfg.attack.device, opt.logn);

  // Single-process telemetry: same JSONL stream the fleet coordinator
  // writes, so fd-report works identically against either mode.
  std::unique_ptr<obs::JsonLinesSink> telemetry_sink;
  std::unique_ptr<obs::ResourceSampler> sampler;
  if (!opt.telemetry.empty()) {
    telemetry_sink = std::make_unique<obs::JsonLinesSink>(opt.telemetry);
    obs::set_sink(telemetry_sink.get());
    obs::set_thread_name("fd-attack");
    sampler = std::make_unique<obs::ResourceSampler>();
  }

  if (!opt.json) {
    std::printf("fd-attack: FALCON-%zu victim, %zu traces, %zu shard%s, %zu thread%s, "
                "%s backend\n",
                victim.pk.params.n, opt.traces, opt.shards, opt.shards == 1 ? "" : "s",
                opt.threads, opt.threads == 1 ? "" : "s",
                std::string(distinguisher::backend_name(opt.backend.backend)).c_str());
  }
  const auto res = attack::run_recovery_pipeline(victim, cfg);
  if (res.interrupted) {
    // The final checkpoint is already on disk (atomic write-then-rename
    // happens before pipeline.interrupted is emitted).
    std::fprintf(stderr, "fd-attack: interrupted -- progress saved to %s; rerun with --resume\n",
                 res.checkpoint_path.c_str());
    return 130;
  }
  if (!res.ok) {
    std::fprintf(stderr, "fd-attack: %s\n", res.error.c_str());
    for (const auto& stage : res.stages) {
      std::fprintf(stderr, "  stage %-9s %s\n", stage.name.c_str(),
                   !stage.ran ? "skipped" : (stage.ok ? "done" : stage.error.c_str()));
    }
    if (cfg.checkpoint || cfg.resume) {
      std::fprintf(stderr, "fd-attack: progress kept in %s -- rerun with --resume\n",
                   res.checkpoint_path.c_str());
    }
    return 2;
  }

  if (opt.json) {
    std::printf("{%s}\n", recovery_json(opt, victim.pk.params.n, res).c_str());
  } else {
    print_recovery(res, nullptr);
  }
  return res.recovery.forgery_verified ? 0 : 1;
}
