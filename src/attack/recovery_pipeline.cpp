#include "attack/recovery_pipeline.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "attack/checkpoint.h"
#include "attack/parallel_attack.h"
#include "common/rng.h"
#include "exec/retry.h"
#include "exec/seed_split.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"

namespace fd::attack {

namespace {

// Binds a checkpoint to its experiment: everything that changes the
// captured bytes or the per-component decisions participates; the
// thread count and checkpoint cadence are wall-time knobs and
// deliberately do not. The CPA kernel batch DOES participate:
// reassociation inside a batch shifts correlations at the ULP level
// (cpa_kernel.h).
std::uint64_t hash_experiment(const falcon::KeyPair& victim,
                              const RecoveryPipelineConfig& config) {
  std::uint64_t h = 0x46444350;  // "FDCP"
  const auto mix = [&h](std::uint64_t v) { h = exec::mix64(h ^ exec::mix64(v)); };
  const auto mixd = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  const KeyRecoveryConfig& a = config.attack;
  mix(a.num_traces);
  mixd(a.device.alpha);
  mixd(a.device.noise_sigma);
  mix(a.device.samples_per_event);
  mix(a.device.jitter_max);
  mix(a.device.constant_weight ? 1 : 0);
  mix(a.extend_top_k);
  mix(a.adversarial_random);
  mix(a.cpa_batch);
  mix(a.seed);
  // Backend selection: a different distinguisher (or a different
  // profiling recipe) is a different experiment -- its checkpoints and
  // rankings are not interchangeable with another backend's.
  mix(static_cast<std::uint64_t>(a.backend.backend));
  mix(a.backend.profile_seed);
  mix(a.backend.profile_traces);
  mix(a.backend.profile_components);
  mix(a.backend.lr_iters);
  mixd(a.backend.lr_rate);
  mixd(a.backend.lr_l2);
  mix(config.capture_shards);
  const sca::FaultConfig& fc = config.faults;
  mixd(fc.drop_rate);
  mixd(fc.desync_rate);
  mix(fc.desync_min);
  mix(fc.desync_max);
  mixd(fc.saturate_rate);
  mixd(fc.saturate_level);
  mixd(fc.glitch_rate);
  mixd(fc.glitch_amplitude);
  mixd(fc.chunk_corrupt_rate);
  mixd(fc.capture_fail_rate);
  mix(fc.seed);
  const QualityConfig& q = config.quality;
  mix(q.enabled ? 1 : 0);
  mixd(q.saturation_pinned_frac);
  mix(q.saturation_min_pinned);
  mixd(q.energy_mad_k);
  mix(q.max_lag);
  mixd(q.min_alignment_corr);
  mix(q.refine_iters);
  mix(config.adaptive ? 1 : 0);
  mix(config.remeasure.max_rounds);
  mix(config.remeasure.round_traces);
  mixd(config.remeasure.confidence.confidence);
  mixd(config.remeasure.confidence.margin_factor);
  for (const std::uint32_t c : victim.pk.h) mix(c);
  return h;
}

bool file_readable(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::size_t count_archive_records(const std::string& path) {
  tracestore::ArchiveReader reader;
  if (!reader.open(path)) return 0;
  tracestore::TraceRecord rec;
  std::size_t count = 0;
  while (reader.next(rec)) ++count;
  return count;
}

// --- the tail every recovery shares ----------------------------------------

// Alias repair and invFFT of one row's components (repaired in place),
// scored against the victim's row.
RowRecoveryResult assemble_and_score(std::vector<ComponentResult>& results,
                                     const falcon::KeyPair& victim, unsigned row) {
  const auto& secret_row = row == 0 ? victim.sk.b01 : victim.sk.b11;
  const auto& true_poly = row == 0 ? victim.sk.f : victim.sk.big_f;
  RowAssembly assembled = assemble_row(results, victim.sk.params.logn, row);
  RowRecoveryResult out;
  out.components_total = victim.sk.params.n;
  for (std::size_t idx = 0; idx < out.components_total; ++idx) {
    out.components_correct += assembled.recovered[idx].bits() == secret_row[idx].bits();
  }
  out.poly = std::move(assembled.poly);
  out.exact = std::equal(out.poly.begin(), out.poly.end(), true_poly.begin(), true_poly.end());
  return out;
}

KeyRecoveryResult f_row_result(RowRecoveryResult row) {
  KeyRecoveryResult out;
  out.components_total = row.components_total;
  out.components_correct = row.components_correct;
  out.recovered_f = std::move(row.poly);
  out.f_exact = row.exact;
  return out;
}

// Completes the key from the recovered f and checks a forged signature
// under the victim's public key. A wrong f is a failed attack, not an
// error: the flags stay false.
void forge_and_verify(KeyRecoveryResult& out, const falcon::PublicKey& pk, std::uint64_t seed) {
  auto forged = forge_key(out.recovered_f, pk);
  if (!forged) return;
  out.ntru_solved = true;
  out.derived_g = forged->g;
  ChaCha20Prng rng(seed ^ 0xF04C3);
  const auto sig = falcon::sign(*forged, "forged by the falcon-down adversary", rng);
  out.forgery_verified = falcon::verify(pk, "forged by the falcon-down adversary", sig);
}

// --- the driver --------------------------------------------------------------

RecoveryPipelineResult drive(const falcon::KeyPair& victim, const RecoveryPipelineConfig& config,
                             const RecoveryExecutor& executor) {
  RecoveryPipelineResult out;
  const std::size_t n = victim.sk.params.n;
  const KeyRecoveryConfig& atk = config.attack;
  const sca::FaultPlan fplan(config.faults);
  const bool checkpointing = config.checkpoint || config.resume;
  if (checkpointing) out.checkpoint_path = config.archive_path + ".fdckpt";

  // One capture round: the initial campaign (round 0) or a
  // re-measurement top-up (round >= 1, its own seed lane and a
  // fault-plan query offset past everything captured before it).
  // Rig-down simulation retries with exponential backoff.
  const auto capture_round = [&](std::size_t round, std::size_t num_traces,
                                 std::size_t query_offset, const std::string& path) {
    sca::ShardedCampaignConfig camp;
    camp.base.num_traces = num_traces;
    camp.base.device = atk.device;
    camp.base.seed = round == 0 ? atk.seed : exec::split_seed(atk.seed, 0xAD0 + round);
    camp.base.row = 0;
    camp.base.faults = config.faults;
    camp.base.fault_query_offset = query_offset;
    camp.num_shards = config.capture_shards;
    exec::RetryPolicy retry;
    retry.max_attempts = std::max<std::size_t>(1, config.remeasure.max_capture_attempts);
    retry.base_ms = config.remeasure.backoff_base_ms;
    for (std::size_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
      ++out.capture_attempts;
      if (fplan.capture_fails(round, attempt)) {
        obs::MetricsRegistry::global().counter("attack.pipeline.capture_failures").add(1);
        const std::size_t wait_ms = retry.backoff_ms(attempt + 1, round);
        if (wait_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        }
        continue;
      }
      return executor.capture(camp, path);
    }
    throw std::runtime_error(
        "capture round " + std::to_string(round) + ": rig down after " +
        std::to_string(retry.max_attempts) + " attempts");
  };

  CheckpointState st;
  st.reset(n);
  st.config_hash = hash_experiment(victim, config);
  st.backend = static_cast<std::uint8_t>(atk.backend.backend);
  std::vector<ComponentResult> results(n);
  std::vector<std::size_t> accepted(n, 0);
  // Components whose attack failed permanently (fleet shards out of
  // retries): they ride into assemble flagged, like an exhausted
  // re-measurement budget.
  std::vector<std::size_t> failed;

  const auto attack = [&](std::span<const std::size_t> components) {
    AttackBatchReport rep = executor.attack(components, results, accepted);
    out.quality.add(rep.quality);
    failed.insert(failed.end(), rep.failed.begin(), rep.failed.end());
  };

  const auto persist = [&] {
    if (!checkpointing) return;
    std::string err;
    if (!save_checkpoint(out.checkpoint_path, st, &err)) throw std::runtime_error(err);
  };

  // Cooperative-shutdown check, called at batch boundaries: persists a
  // final checkpoint first so the interrupt never strands a finished
  // batch, then unwinds through the stage-failure path.
  const auto check_interrupt = [&] {
    if (config.interrupt_flag == nullptr || *config.interrupt_flag == 0) return;
    persist();
    out.interrupted = true;
    obs::event("pipeline.interrupted")
        .with("completed", st.completed())
        .with("checkpoint", out.checkpoint_path)
        .emit();
    throw std::runtime_error("interrupted by signal");
  };

  const auto low_confidence_set = [&] {
    std::vector<std::size_t> low;
    if (!config.adaptive) return low;
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (!component_confidence(results[idx], accepted[idx], config.remeasure.confidence)
               .confident) {
        low.push_back(idx);
      }
    }
    return low;
  };

  exec::JobGraph graph;
  const auto capture = graph.add("capture", [&] {
    if (config.resume && file_readable(out.checkpoint_path) &&
        file_readable(config.archive_path)) {
      CheckpointState loaded;
      std::string err;
      if (load_checkpoint(out.checkpoint_path, loaded, &err) &&
          loaded.config_hash == st.config_hash && loaded.backend == st.backend &&
          loaded.done.size() == n) {
        // Same experiment, archive still on disk (including any merged
        // re-measurement rounds): reuse both instead of recapturing.
        st = std::move(loaded);
        for (std::size_t idx = 0; idx < n; ++idx) {
          if (st.done[idx] != 0) {
            results[idx] = st.results[idx];
            accepted[idx] = static_cast<std::size_t>(st.accepted_traces[idx]);
          }
        }
        out.resumed = true;
        out.captured_records = count_archive_records(config.archive_path);
        obs::MetricsRegistry::global().counter("attack.pipeline.resumes").add(1);
        return;
      }
      // Incompatible or unreadable checkpoint: fall through to a clean
      // capture (the stale file is overwritten at the first batch).
    }
    out.captured_records = capture_round(0, atk.num_traces, 0, config.archive_path);
  });

  const auto attack_stage = graph.add("attack", [&] {
    std::vector<std::size_t> todo;
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (st.done[idx] == 0) todo.push_back(idx);
    }
    // Batches exist to persist progress between them. Without
    // checkpointing the whole todo set is one batch: ONE archive scan
    // for a local attack round, and one list the fleet spreads across
    // all its workers.
    const std::size_t batch_size =
        !checkpointing || config.checkpoint_every == 0
            ? std::max<std::size_t>(1, todo.size())
            : config.checkpoint_every;
    std::size_t completed = st.completed();
    for (std::size_t b = 0; b < todo.size(); b += batch_size) {
      check_interrupt();
      if (config.abort_after_components != 0 &&
          completed >= config.abort_after_components) {
        throw std::runtime_error("aborted after " + std::to_string(completed) +
                                 " components (simulated kill)");
      }
      const std::size_t end = std::min(todo.size(), b + batch_size);
      const std::span<const std::size_t> batch(todo.data() + b, end - b);
      attack(batch);
      for (const std::size_t idx : batch) {
        st.done[idx] = 1;
        st.results[idx] = results[idx];
        st.accepted_traces[idx] = accepted[idx];
        ++completed;
      }
      persist();
    }
  }, {capture});

  const auto remeasure = graph.add("remeasure", [&] {
    std::size_t round = st.remeasure_round;
    std::vector<std::size_t> low = low_confidence_set();
    const std::size_t round_traces = config.remeasure.round_traces == 0
                                         ? atk.num_traces
                                         : config.remeasure.round_traces;
    while (!low.empty() && round < config.remeasure.max_rounds) {
      check_interrupt();
      ++round;
      obs::event("attack.remeasure")
          .with("round", round)
          .with("low_confidence", low.size())
          .emit();
      // Top-up capture under the round's own seed lane; its fault-plan
      // offset starts past every query captured in earlier rounds.
      const std::string extra = config.archive_path + ".r" + std::to_string(round);
      const std::size_t offset = atk.num_traces + (round - 1) * round_traces;
      capture_round(round, round_traces, offset, extra);
      // Merge into the main archive (merge cannot write in place).
      const std::string merged = config.archive_path + ".merge";
      const std::string inputs[] = {config.archive_path, extra};
      std::string err;
      if (!tracestore::merge_archives(inputs, merged, &err)) {
        std::remove(extra.c_str());
        throw std::runtime_error("re-measurement merge failed: " + err);
      }
      std::remove(extra.c_str());
      if (std::rename(merged.c_str(), config.archive_path.c_str()) != 0) {
        std::remove(merged.c_str());
        throw std::runtime_error("re-measurement merge rename failed");
      }
      // Only the doubtful components re-run, now over the larger D.
      attack(low);
      st.remeasure_round = static_cast<std::uint32_t>(round);
      for (const std::size_t idx : low) {
        st.results[idx] = results[idx];
        st.accepted_traces[idx] = accepted[idx];
      }
      persist();
      low = low_confidence_set();
    }
    out.remeasure_rounds = round;
    // Budget exhausted or attacks failed for good: degrade gracefully.
    // The flagged components ride into assemble, where the
    // exponent-alias repair gets a shot at them; the result is marked
    // partial either way.
    low.insert(low.end(), failed.begin(), failed.end());
    std::sort(low.begin(), low.end());
    low.erase(std::unique(low.begin(), low.end()), low.end());
    if (!low.empty()) {
      out.flagged_components = std::move(low);
      out.partial = true;
      obs::MetricsRegistry::global()
          .counter("attack.pipeline.flagged_components")
          .add(out.flagged_components.size());
    }
  }, {attack_stage});

  const auto assemble = graph.add("assemble", [&] {
    // Snapshot the per-component state before the in-place alias repair.
    out.results = results;
    out.accepted_traces = accepted;
    out.recovery = f_row_result(assemble_and_score(results, victim, /*row=*/0));
  }, {remeasure});

  graph.add("forge", [&] { forge_and_verify(out.recovery, victim.pk, atk.seed); }, {assemble});

  // Collected, never thrown: a failed stage leaves its message in
  // `error` and the downstream reports with ran == false.
  out.stages = graph.run_collect(nullptr, &out.error);
  out.ok = out.error.empty();

  if (out.ok) {
    // A finished run's checkpoint must not shadow a future experiment.
    if (checkpointing) std::remove(out.checkpoint_path.c_str());
    if (!config.keep_archive) std::remove(config.archive_path.c_str());
  } else if (!checkpointing) {
    if (!config.keep_archive) std::remove(config.archive_path.c_str());
  }
  // On failure with checkpointing on, BOTH the archive and the .fdckpt
  // stay behind -- that pair is what --resume picks back up.
  return out;
}

}  // namespace

RecoveryPipelineResult run_recovery_pipeline(const falcon::KeyPair& victim,
                                             const RecoveryPipelineConfig& config,
                                             const RecoveryExecutor* executor) {
  if (config.archive_path.empty()) {
    RecoveryPipelineResult out;
    out.error = "recovery pipeline needs an archive_path";
    return out;
  }
  if (executor != nullptr) return drive(victim, config, *executor);

  // The local executor. Root the trace in the experiment hash ("TRAC"
  // salt, matching the fleet coordinator's derivation) so the
  // single-process pipeline produces the same replay-stable span ids on
  // every run.
  obs::set_trace_root(exec::mix64(hash_experiment(victim, config) ^ 0x54524143ULL));
  obs::Span span("attack.pipeline", obs::Span::Root::kAdopt);
  const KeyRecoveryConfig& atk = config.attack;
  std::unique_ptr<exec::ThreadPool> pool;
  if (atk.threads > 1) pool = std::make_unique<exec::ThreadPool>(atk.threads);
  const auto config_for = [&](const ComponentIndex& ci) {
    ComponentAttackConfig cac =
        component_attack_config(victim.sk, atk, /*row=*/0, ci.slot, ci.imag);
    cac.scan_pool = pool.get();  // nested parallel_map runs inline
    return cac;
  };
  RecoveryExecutor local;
  local.capture = [&](const sca::ShardedCampaignConfig& round, const std::string& path) {
    const auto res = sca::run_campaign_sharded(victim.sk, round, path, pool.get());
    if (!res.ok) throw std::runtime_error("capture failed: " + res.error);
    return res.records;
  };
  local.attack = [&](std::span<const std::size_t> components,
                     std::vector<ComponentResult>& results, std::vector<std::size_t>& accepted) {
    AttackBatchReport rep;
    std::string err;
    if (!attack_components_gated(config.archive_path, config.quality, config_for, pool.get(),
                                 components, results, accepted, &rep.quality, &err)) {
      throw std::runtime_error("component attack failed: " + err);
    }
    return rep;
  };
  RecoveryPipelineResult out = drive(victim, config, local);
  obs::MetricsRegistry::global().counter("attack.pipeline.runs").add(1);
  return out;
}

// The unarchived reference recovery: in-memory capture and fan-out, then
// the driver's assemble -> score (-> forge) tail.

RowRecoveryResult recover_row_poly(const falcon::KeyPair& victim,
                                   const KeyRecoveryConfig& config, unsigned row) {
  sca::CampaignConfig camp;
  camp.num_traces = config.num_traces;
  camp.device = config.device;
  camp.seed = config.seed;
  camp.row = row;
  std::vector<sca::TraceSet> trace_sets;
  {
    obs::Span phase("key_recovery.campaign");
    trace_sets = sca::run_full_campaign(victim.sk, camp);
  }

  // The per-component fan-out: bit-identical at any thread count (see
  // parallel_attack.h), so `threads` is a pure wall-clock knob.
  std::unique_ptr<exec::ThreadPool> pool;
  if (config.threads > 1) pool = std::make_unique<exec::ThreadPool>(config.threads);
  const auto config_for = [&](const ComponentIndex& ci) {
    ComponentAttackConfig cac =
        component_attack_config(victim.sk, config, row, ci.slot, ci.imag);
    // Sharded scans share the component pool; nested parallel_map calls
    // from pool workers run inline, so this cannot deadlock.
    cac.scan_pool = pool.get();
    return cac;
  };
  std::vector<ComponentResult> results =
      attack_all_components_parallel(trace_sets, config_for, pool.get());
  return assemble_and_score(results, victim, row);
}

KeyRecoveryResult recover_key(const falcon::KeyPair& victim, const KeyRecoveryConfig& config) {
  obs::Span span("key_recovery");
  KeyRecoveryResult out = f_row_result(recover_row_poly(victim, config, /*row=*/0));
  forge_and_verify(out, victim.pk, config.seed);
  return out;
}

}  // namespace fd::attack
