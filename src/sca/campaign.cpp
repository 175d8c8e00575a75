#include "sca/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "exec/parallel_for.h"
#include "exec/seed_split.h"
#include "falcon/sign.h"
#include "fft/fft.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sca/capture.h"

namespace fd::sca {

namespace {

using fpr::Fpr;
using Clock = std::chrono::steady_clock;

// Per-campaign telemetry shared by the in-memory and archive capture
// loops: query/record counters, end-of-campaign throughput
// gauges, the capture layer times, and the user-facing progress
// callback. The callback fires in every build; the metric calls compile
// to no-ops under FD_OBS=OFF.
class CampaignTelemetry {
 public:
  CampaignTelemetry(const CampaignConfig& config, std::string_view mode)
      : config_(config),
        mode_(mode),
        span_("sca.campaign"),
        queries_(obs::MetricsRegistry::global().counter("sca.campaign.queries")),
        records_(obs::MetricsRegistry::global().counter("sca.campaign.records")) {}

  void on_query(std::size_t done, std::size_t records_added) {
    queries_.add(1);
    records_.add(records_added);
    if (config_.progress_every != 0 && config_.progress &&
        (done % config_.progress_every == 0 || done == config_.num_traces)) {
      config_.progress(done, config_.num_traces);
    }
  }

  // Layer clocks, one pair per query each (a query has up to 512
  // windows; a per-window clock would cost more than it measures):
  // signing, and the query's window synthesis plus archive appends.
  void add_sign(Clock::duration d) { sign_ += d; }
  void add_synth(Clock::duration d) { synth_ += d; }

  // `flush_us` is the archive writer's chunk-flush time (CRC plus
  // write); all but the last chunk's flush falls inside synth_us.
  void finish(std::size_t queries, std::size_t records, double flush_us = 0.0) {
    const double us = span_.elapsed_us();
    const double sign_us = std::chrono::duration<double, std::micro>(sign_).count();
    const double synth_us = std::chrono::duration<double, std::micro>(synth_).count();
    auto& reg = obs::MetricsRegistry::global();
    if (us > 0.0) {
      reg.gauge("sca.campaign.queries_per_s").set(static_cast<double>(queries) * 1e6 / us);
      reg.gauge("sca.campaign.records_per_s").set(static_cast<double>(records) * 1e6 / us);
    }
    reg.counter("sca.campaign.sign_us").add(static_cast<std::uint64_t>(sign_us));
    reg.counter("sca.campaign.synth_us").add(static_cast<std::uint64_t>(synth_us));
    reg.counter("sca.campaign.flush_us").add(static_cast<std::uint64_t>(flush_us));
    obs::event("sca.campaign")
        .with("mode", mode_)
        .with("queries", queries)
        .with("records", records)
        .with("wall_us", us)
        .with("sign_us", sign_us)
        .with("synth_us", synth_us)
        .with("flush_us", flush_us)
        .emit();
  }

 private:
  const CampaignConfig& config_;
  std::string_view mode_;
  obs::Span span_;
  obs::Counter& queries_;
  obs::Counter& records_;
  Clock::duration sign_{};
  Clock::duration synth_{};
};

// The fault plan's decision for campaign-global query `gq`, counted in
// the sca.faults.* metrics (a dropped query counts only as dropped).
QueryFault draw_query_fault(const FaultPlan& plan, std::uint64_t gq) {
  if (!plan.enabled()) return {};
  const QueryFault qf = plan.query_fault(gq);
  auto& reg = obs::MetricsRegistry::global();
  if (qf.drop) {
    reg.counter("sca.faults.dropped_queries").add(1);
    return qf;
  }
  if (qf.desync != 0) reg.counter("sca.faults.desynced_queries").add(1);
  if (qf.saturate) reg.counter("sca.faults.saturated_queries").add(1);
  return qf;
}

// One capture query, the step every campaign loop shares. Query d signs
// "trace-<d>" with the capture signer under the recorder, on its own
// victim stream exec::split_seed(seed ^ 0x5167, d); the device's noise
// restarts at exec::split_seed(seed ^ 0xD01CE, d); and the adversary
// recomputes FFT(c) from the public salt. No query's bytes depend on
// another query, so a dropped query is simply never run.
class QueryCapture {
 public:
  QueryCapture(const falcon::SecretKey& sk, const CampaignConfig& config)
      : sk_(sk),
        config_(config),
        hn_(sk.params.n >> 1),
        device_(config.device, config.seed ^ 0xD01CE),
        recorder_(hn_, config.row),
        known_(sk.params.n) {}

  // Runs query d; returns the time spent signing.
  Clock::duration run(std::size_t d) {
    const std::string message = "trace-" + std::to_string(d);
    const Clock::time_point start = Clock::now();
    ChaCha20Prng victim_rng(exec::split_seed(config_.seed ^ 0x5167, d));
    recorder_.start_run();
    falcon::Signature sig;
    {
      fpr::ScopedLeakageSink scope(&recorder_);
      sig = falcon::sign_capture(sk_, message, victim_rng, config_.masked);
    }
    const Clock::duration signing = Clock::now() - start;
    device_.reseed(exec::split_seed(config_.seed ^ 0xD01CE, d));
    const auto c = falcon::hash_to_point(sig.salt, message, sk_.params.logn);
    for (std::size_t i = 0; i < c.size(); ++i) known_[i] = fpr::fpr_of(c[i]);
    fft::fft(known_, sk_.params.logn);
    return signing;
  }

  [[nodiscard]] std::span<const fpr::LeakageEvent> window(std::size_t slot) const {
    return recorder_.window(slot);
  }
  [[nodiscard]] Fpr known_re(std::size_t slot) const { return known_[slot]; }
  [[nodiscard]] Fpr known_im(std::size_t slot) const { return known_[slot + hn_]; }
  EmDeviceModel& device() { return device_; }

 private:
  const falcon::SecretKey& sk_;
  const CampaignConfig& config_;
  std::size_t hn_;
  EmDeviceModel device_;
  LastWindowRecorder recorder_;
  std::vector<Fpr> known_;  // FFT(c) of the last query
};

}  // namespace

TraceSet run_signing_campaign(const falcon::SecretKey& sk, std::size_t slot,
                              const CampaignConfig& config) {
  QueryCapture step(sk, config);
  TraceSet set;
  set.slot = slot;
  set.traces.reserve(config.num_traces);
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    (void)step.run(d);
    CapturedTrace ct;
    ct.trace = step.device().synthesize(step.window(slot));
    ct.known_re = step.known_re(slot);
    ct.known_im = step.known_im(slot);
    set.traces.push_back(std::move(ct));
  }
  return set;
}

tracestore::ArchiveMeta make_archive_meta(const falcon::SecretKey& sk,
                                          const CampaignConfig& config,
                                          std::size_t samples_per_trace,
                                          std::size_t traces_per_chunk) {
  tracestore::ArchiveMeta meta;
  meta.logn = sk.params.logn;
  meta.row = config.row;
  meta.num_slots = static_cast<std::uint32_t>(sk.params.n >> 1);
  meta.samples_per_trace = static_cast<std::uint32_t>(samples_per_trace);
  meta.traces_per_chunk = static_cast<std::uint32_t>(traces_per_chunk);
  meta.alpha = config.device.alpha;
  meta.noise_sigma = config.device.noise_sigma;
  meta.samples_per_event = config.device.samples_per_event;
  meta.jitter_max = config.device.jitter_max;
  if (config.device.constant_weight) meta.flags |= tracestore::kFlagConstantWeight;
  meta.seed = config.seed;
  return meta;
}

namespace {

// run_campaign_to_archive with `extra_flags` OR'd into the archive's
// header flags (kFlagMerged for a one-shard capture written in place).
ArchiveCampaignResult capture_to_archive(const falcon::SecretKey& sk, const CampaignConfig& config,
                                         const std::string& path, std::size_t traces_per_chunk,
                                         std::uint32_t extra_flags) {
  const std::size_t hn = sk.params.n >> 1;
  QueryCapture step(sk, config);

  ArchiveCampaignResult out;
  CampaignTelemetry telemetry(config, "archive");
  const FaultPlan fplan(config.faults);
  tracestore::ArchiveWriter writer;
  tracestore::TraceRecord rec;  // its samples buffer is reused by every window
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    const std::uint64_t gq = config.fault_query_offset + d;
    const QueryFault qf = draw_query_fault(fplan, gq);
    if (qf.drop) {
      // Missed trigger: the scope captured nothing, so the query is not
      // run at all -- no signing, no FFT(c) recomputation, and its index
      // never appears on disk.
      ++out.queries;
      telemetry.on_query(d + 1, 0);
      continue;
    }
    telemetry.add_sign(step.run(d));
    const Clock::time_point synth_start = Clock::now();
    for (std::size_t s = 0; s < hn; ++s) {
      step.device().synthesize_into(step.window(s), rec.samples);
      if (!writer.is_open()) {
        // First captured window fixes the archive's trace length.
        auto meta = make_archive_meta(sk, config, rec.samples.size(), traces_per_chunk);
        meta.flags |= extra_flags;
        if (!writer.open(path, meta)) {
          out.error = writer.error();
          return out;
        }
      }
      if (rec.samples.size() != writer.meta().samples_per_trace) {
        out.error = "signer produced a ragged window length at query " +
                    std::to_string(d) + ", slot " + std::to_string(s);
        return out;
      }
      if (fplan.enabled()) apply_trace_faults(fplan, qf, gq, s, rec.samples);
      rec.slot = static_cast<std::uint32_t>(s);
      rec.index = static_cast<std::uint32_t>(d);
      rec.known_re_bits = step.known_re(s).bits();
      rec.known_im_bits = step.known_im(s).bits();
      if (!writer.append(rec)) {
        out.error = writer.error();
        return out;
      }
      ++out.records;
    }
    telemetry.add_synth(Clock::now() - synth_start);
    ++out.queries;
    telemetry.on_query(d + 1, hn);
  }
  if (!writer.is_open()) {
    if (config.num_traces == 0) {
      out.error = "archive campaign needs at least one query";
      return out;
    }
    // Every query dropped (possible for a small shard under a harsh
    // plan): emit a valid empty archive so sharded merges still work,
    // with the trace length of a real window.
    auto meta = make_archive_meta(sk, config, config.device.window_samples(), traces_per_chunk);
    meta.flags |= extra_flags;
    if (!writer.open(path, meta)) {
      out.error = writer.error();
      return out;
    }
  }
  if (!writer.close()) {
    out.error = writer.error();
    return out;
  }
  telemetry.finish(out.queries, out.records, writer.flush_us());
  if (config.faults.chunk_corrupt_rate > 0.0) {
    std::string cerr;
    if (!corrupt_archive_chunks(path, fplan, nullptr, &cerr)) {
      out.error = cerr;
      return out;
    }
  }
  out.ok = true;
  return out;
}

}  // namespace

ArchiveCampaignResult run_campaign_to_archive(const falcon::SecretKey& sk,
                                              const CampaignConfig& config,
                                              const std::string& path,
                                              std::size_t traces_per_chunk) {
  return capture_to_archive(sk, config, path, traces_per_chunk, 0);
}

std::vector<CampaignConfig> shard_campaign_configs(const ShardedCampaignConfig& config) {
  const auto plan = exec::static_chunks(config.base.num_traces,
                                        std::max<std::size_t>(1, config.num_shards));
  std::vector<CampaignConfig> shards(plan.size(), config.base);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    shards[i].num_traces = plan[i].size();
    shards[i].seed = exec::split_seed(config.base.seed, i);
    shards[i].fault_query_offset = config.base.fault_query_offset + plan[i].begin;
    shards[i].faults.chunk_corrupt_rate = 0.0;
  }
  return shards;
}

bool finish_sharded_capture(const ShardedCampaignConfig& config,
                            std::span<const std::string> shard_paths, const std::string& path,
                            std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (shard_paths.size() != 1 || shard_paths[0] != path) {
    // Merge in shard-index order -- the deterministic reduction.
    std::string merge_error;
    const bool merged = tracestore::merge_archives(shard_paths, path, &merge_error);
    if (!config.keep_shards) {
      for (const auto& p : shard_paths) std::remove(p.c_str());
    }
    if (!merged) return fail("merge: " + merge_error);
  }
  // Chunk damage applies to the merged file: its chunk ordinals are the
  // experiment-visible ones (a pure function of key/config/num_shards),
  // so the damaged byte set is deterministic too.
  if (config.base.faults.chunk_corrupt_rate > 0.0) {
    std::string cerr;
    if (!corrupt_archive_chunks(path, FaultPlan(config.base.faults), nullptr, &cerr)) {
      return fail(cerr);
    }
  }
  return true;
}

ShardedCampaignResult run_campaign_sharded(const falcon::SecretKey& sk,
                                           const ShardedCampaignConfig& config,
                                           const std::string& path, exec::ThreadPool* pool,
                                           std::size_t traces_per_chunk) {
  ShardedCampaignResult out;
  if (config.base.num_traces == 0) {
    out.error = "sharded campaign needs at least one query";
    return out;
  }
  const std::vector<CampaignConfig> shards = shard_campaign_configs(config);
  out.shards = shards.size();

  obs::Span span("sca.campaign.sharded");
  // Campaign-global progress: shard-local callbacks report deltas into a
  // shared counter, and the user callback fires under a lock with the
  // aggregate count. Invocation order across shards is scheduler noise
  // (observability only -- captured data never depends on it).
  struct Progress {
    std::mutex mu;
    std::atomic<std::size_t> done{0};
  };
  auto progress = std::make_shared<Progress>();

  // A lone shard with no file to keep is captured straight into `path`
  // with kFlagMerged already set: merging it would copy every record
  // unchanged and only set the flag, so the bytes are the same, written
  // once.
  const bool in_place = shards.size() == 1 && !config.keep_shards;
  std::vector<ArchiveCampaignResult> shard_results(shards.size());
  std::vector<std::string> shard_paths(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shard_paths[i] = in_place ? path : path + ".shard" + std::to_string(i);
  }

  exec::parallel_for(pool, shards.size(), [&](std::size_t i) {
    CampaignConfig shard_cfg = shards[i];
    if (config.base.progress) {
      const std::size_t total = config.base.num_traces;
      auto last = std::make_shared<std::size_t>(0);
      const auto user = config.base.progress;
      shard_cfg.progress = [progress, last, total, user](std::size_t done, std::size_t) {
        const std::size_t global =
            progress->done.fetch_add(done - *last, std::memory_order_relaxed) +
            (done - *last);
        *last = done;
        std::lock_guard<std::mutex> lock(progress->mu);
        user(global, total);
      };
    }
    shard_results[i] = capture_to_archive(sk, shard_cfg, shard_paths[i], traces_per_chunk,
                                          in_place ? tracestore::kFlagMerged : 0);
  });

  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shard_results[i].ok) {
      out.error = "shard " + std::to_string(i) + ": " + shard_results[i].error;
      if (!config.keep_shards) {
        for (const auto& p : shard_paths) std::remove(p.c_str());
      }
      return out;
    }
    out.queries += shard_results[i].queries;
    out.records += shard_results[i].records;
  }
  // The barrier above guarantees every shard file is complete first.
  if (!finish_sharded_capture(config, shard_paths, path, &out.error)) return out;
  if (config.keep_shards) out.shard_paths = std::move(shard_paths);
  obs::event("sca.campaign.sharded")
      .with("shards", out.shards)
      .with("queries", out.queries)
      .with("records", out.records)
      .with("wall_us", span.elapsed_us())
      .emit();
  out.ok = true;
  return out;
}

bool load_trace_sets_for(tracestore::ArchiveReader& reader,
                         std::span<const std::size_t> slots, std::vector<TraceSet>& out) {
  if (!reader.is_open()) return false;
  const std::size_t hn = reader.meta().num_slots;
  constexpr std::size_t kUnrouted = static_cast<std::size_t>(-1);
  std::vector<std::size_t> route(hn, kUnrouted);  // slot -> out index
  out.assign(slots.size(), TraceSet{});
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::size_t s = slots[i];
    if (s >= hn || route[s] != kUnrouted) return false;  // out of range / duplicate
    route[s] = i;
    out[i].slot = s;
  }
  reader.rewind();
  tracestore::TraceRecord rec;
  while (reader.next(rec)) {
    if (rec.slot >= hn || route[rec.slot] == kUnrouted) continue;
    CapturedTrace ct;
    ct.trace.samples = std::move(rec.samples);
    ct.known_re = Fpr::from_bits(rec.known_re_bits);
    ct.known_im = Fpr::from_bits(rec.known_im_bits);
    out[route[rec.slot]].traces.push_back(std::move(ct));
  }
  return true;
}

std::vector<TraceSet> run_full_campaign(const falcon::SecretKey& sk,
                                        const CampaignConfig& config) {
  const std::size_t hn = sk.params.n >> 1;
  QueryCapture step(sk, config);

  CampaignTelemetry telemetry(config, "inmemory");
  const FaultPlan fplan(config.faults);
  std::vector<TraceSet> sets(hn);
  for (std::size_t s = 0; s < hn; ++s) {
    sets[s].slot = s;
    sets[s].traces.reserve(config.num_traces);
  }
  std::size_t captured = 0;
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    const std::uint64_t gq = config.fault_query_offset + d;
    const QueryFault qf = draw_query_fault(fplan, gq);
    if (qf.drop) {
      telemetry.on_query(d + 1, 0);
      continue;
    }
    telemetry.add_sign(step.run(d));
    const Clock::time_point synth_start = Clock::now();
    for (std::size_t s = 0; s < hn; ++s) {
      CapturedTrace ct;
      step.device().synthesize_into(step.window(s), ct.trace.samples);
      if (fplan.enabled()) apply_trace_faults(fplan, qf, gq, s, ct.trace.samples);
      ct.known_re = step.known_re(s);
      ct.known_im = step.known_im(s);
      sets[s].traces.push_back(std::move(ct));
    }
    telemetry.add_synth(Clock::now() - synth_start);
    ++captured;
    telemetry.on_query(d + 1, hn);
  }
  telemetry.finish(config.num_traces, captured * hn);
  return sets;
}

}  // namespace fd::sca
