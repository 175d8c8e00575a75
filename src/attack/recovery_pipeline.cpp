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

}  // namespace

RecoveryPipelineResult run_recovery_pipeline(const falcon::KeyPair& victim,
                                             const RecoveryPipelineConfig& config) {
  RecoveryPipelineResult out;
  if (config.archive_path.empty()) {
    out.error = "recovery pipeline needs an archive_path";
    return out;
  }
  const unsigned logn = victim.sk.params.logn;
  const std::size_t n = victim.sk.params.n;
  const KeyRecoveryConfig& atk = config.attack;
  const sca::FaultPlan fplan(config.faults);
  const std::uint64_t experiment = hash_experiment(victim, config);
  // Root the trace in the experiment hash ("TRAC" salt, matching the
  // fleet coordinator's derivation) so the single-process pipeline
  // produces the same replay-stable span ids on every run.
  obs::set_trace_root(exec::mix64(experiment ^ 0x54524143ULL));
  obs::Span span("attack.pipeline", obs::Span::Root::kAdopt);
  const bool checkpointing = config.checkpoint || config.resume;
  if (checkpointing) out.checkpoint_path = config.archive_path + ".fdckpt";

  std::unique_ptr<exec::ThreadPool> pool;
  if (atk.threads > 1) pool = std::make_unique<exec::ThreadPool>(atk.threads);

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
    // Shared bounded-retry vocabulary (exec::RetryPolicy): the same
    // base << attempt schedule this loop always had, now expressed
    // through the policy the fleet coordinator uses for reassignment
    // and remote reconnects.
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
      const auto res = sca::run_campaign_sharded(victim.sk, camp, path, pool.get());
      if (!res.ok) throw std::runtime_error("capture failed: " + res.error);
      return res.records;
    }
    throw std::runtime_error(
        "capture round " + std::to_string(round) + ": rig down after " +
        std::to_string(retry.max_attempts) + " attempts");
  };

  const auto config_for = [&](const ComponentIndex& ci) {
    ComponentAttackConfig cac =
        component_attack_config(victim.sk, atk, /*row=*/0, ci.slot, ci.imag);
    cac.scan_pool = pool.get();  // nested parallel_map runs inline
    return cac;
  };

  CheckpointState st;
  st.reset(n);
  st.config_hash = experiment;
  st.backend = static_cast<std::uint8_t>(atk.backend.backend);
  std::vector<ComponentResult> results(n);
  std::vector<std::size_t> accepted(n, 0);
  RowAssembly assembled;

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

  // Confidence of one finished component under the acceptance criterion.
  const auto confident = [&](std::size_t idx) {
    return component_confidence(results[idx], accepted[idx], config.remeasure.confidence)
        .confident;
  };
  const auto low_confidence_set = [&] {
    std::vector<std::size_t> low;
    if (!config.adaptive) return low;
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (!confident(idx)) low.push_back(idx);
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
          loaded.config_hash == experiment &&
          loaded.backend == static_cast<std::uint8_t>(atk.backend.backend) &&
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

  const auto attack = graph.add("attack", [&] {
    std::vector<std::size_t> todo;
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (st.done[idx] == 0) todo.push_back(idx);
    }
    // Without checkpointing there is nothing to persist between
    // batches, so the whole todo set runs as one batch -- exactly ONE
    // archive scan for the attack round.
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
      QualityReport q;
      std::string err;
      if (!attack_components_gated(config.archive_path, config.quality, config_for,
                                   pool.get(), batch, results, accepted, &q, &err)) {
        throw std::runtime_error("component attack failed: " + err);
      }
      out.quality.add(q);
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
    if (!config.adaptive) return;
    std::size_t round = st.remeasure_round;
    std::vector<std::size_t> low = low_confidence_set();
    const std::size_t round_traces = config.remeasure.round_traces == 0
                                         ? atk.num_traces
                                         : config.remeasure.round_traces;
    while (!low.empty() && round < config.remeasure.max_rounds) {
      check_interrupt();
      ++round;
      obs::event("attack.pipeline.remeasure")
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
      QualityReport q;
      if (!attack_components_gated(config.archive_path, config.quality, config_for,
                                   pool.get(), low, results, accepted, &q, &err)) {
        throw std::runtime_error("re-measurement attack failed: " + err);
      }
      out.quality.add(q);
      st.remeasure_round = static_cast<std::uint32_t>(round);
      for (const std::size_t idx : low) {
        st.results[idx] = results[idx];
        st.accepted_traces[idx] = accepted[idx];
      }
      persist();
      low = low_confidence_set();
    }
    out.remeasure_rounds = round;
    if (!low.empty()) {
      // Budget exhausted: degrade gracefully. The flagged components
      // ride into assemble, where the exponent-alias repair gets a shot
      // at them; the result is marked partial either way.
      out.flagged_components = std::move(low);
      out.partial = true;
      obs::MetricsRegistry::global()
          .counter("attack.pipeline.flagged_components")
          .add(out.flagged_components.size());
    }
  }, {attack});

  const auto assemble = graph.add("assemble", [&] {
    assembled = assemble_row(results, logn, /*row=*/0);
    const auto& secret_row = victim.sk.b01;
    out.recovery.components_total = n;
    for (std::size_t idx = 0; idx < n; ++idx) {
      out.recovery.components_correct +=
          assembled.recovered[idx].bits() == secret_row[idx].bits();
    }
    out.recovery.recovered_f = assembled.poly;
    out.recovery.f_exact = std::equal(assembled.poly.begin(), assembled.poly.end(),
                                      victim.sk.f.begin(), victim.sk.f.end());
  }, {remeasure});

  graph.add("forge", [&] {
    auto forged = forge_key(out.recovery.recovered_f, victim.pk);
    if (!forged) return;  // attack failed to land; not a pipeline error
    out.recovery.ntru_solved = true;
    out.recovery.derived_g = forged->g;
    ChaCha20Prng rng(atk.seed ^ 0xF04C3);
    const auto sig = falcon::sign(*forged, "forged by the falcon-down adversary", rng);
    out.recovery.forgery_verified =
        falcon::verify(victim.pk, "forged by the falcon-down adversary", sig);
  }, {assemble});

  // Collected, never thrown: a failed stage leaves its message in
  // `error` and the downstream reports with ran == false.
  out.stages = graph.run_collect(pool.get(), &out.error);
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
  obs::MetricsRegistry::global().counter("attack.pipeline.runs").add(1);
  return out;
}

}  // namespace fd::attack
