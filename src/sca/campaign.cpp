#include "sca/campaign.h"

#include <atomic>
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

// Per-campaign telemetry shared by the in-memory and archive capture
// loops: query/record/retry counters, end-of-campaign throughput
// gauges, and the user-facing progress callback. The callback fires in
// every build; the metric calls compile to no-ops under FD_OBS=OFF.
class CampaignTelemetry {
 public:
  CampaignTelemetry(const CampaignConfig& config, std::string_view mode)
      : config_(config),
        mode_(mode),
        span_("sca.campaign"),
        queries_(obs::MetricsRegistry::global().counter("sca.campaign.queries")),
        records_(obs::MetricsRegistry::global().counter("sca.campaign.records")),
        retries_(obs::MetricsRegistry::global().counter("sca.campaign.sign_retries")) {}

  void on_query(const LastWindowRecorder& recorder, std::size_t done,
                std::size_t records_added) {
    queries_.add(1);
    records_.add(records_added);
    const std::size_t attempts = recorder.run_attempts();
    if (attempts > 1) retries_.add(attempts - 1);
    if (config_.progress_every != 0 && config_.progress &&
        (done % config_.progress_every == 0 || done == config_.num_traces)) {
      config_.progress(done, config_.num_traces);
    }
  }

  void finish(std::size_t queries, std::size_t records) {
    const double us = span_.elapsed_us();
    if (us > 0.0) {
      auto& reg = obs::MetricsRegistry::global();
      reg.gauge("sca.campaign.queries_per_s").set(static_cast<double>(queries) * 1e6 / us);
      reg.gauge("sca.campaign.records_per_s").set(static_cast<double>(records) * 1e6 / us);
    }
    obs::event("sca.campaign")
        .with("mode", mode_)
        .with("queries", queries)
        .with("records", records)
        .with("wall_us", us)
        .emit();
  }

 private:
  const CampaignConfig& config_;
  std::string_view mode_;
  obs::Span span_;
  obs::Counter& queries_;
  obs::Counter& records_;
  obs::Counter& retries_;
};

// Adversary-side recomputation of FFT(c)[*] from public data.
std::vector<Fpr> known_fft_of_hash(const falcon::Signature& sig, std::string_view message,
                                   unsigned logn) {
  const auto c = falcon::hash_to_point(sig.salt, message, logn);
  std::vector<Fpr> cf(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) cf[i] = fpr::fpr_of(c[i]);
  fft::fft(cf, logn);
  return cf;
}

}  // namespace

TraceSet run_signing_campaign(const falcon::SecretKey& sk, std::size_t slot,
                              const CampaignConfig& config) {
  const unsigned logn = sk.params.logn;
  const std::size_t hn = sk.params.n >> 1;

  ChaCha20Prng victim_rng(config.seed ^ 0x5167);
  EmDeviceModel device(config.device, config.seed ^ 0xD01CE);
  LastWindowRecorder recorder(hn, config.row);
  const SignerFn signer = config.signer ? config.signer : SignerFn(&falcon::sign);

  TraceSet set;
  set.slot = slot;
  set.traces.reserve(config.num_traces);
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    const std::string message = "trace-" + std::to_string(d);
    recorder.start_run();
    falcon::Signature sig;
    {
      fpr::ScopedLeakageSink scope(&recorder);
      sig = signer(sk, message, victim_rng);
    }
    const auto cf = known_fft_of_hash(sig, message, logn);
    CapturedTrace ct;
    ct.trace = device.synthesize(recorder.window(slot));
    ct.known_re = cf[slot];
    ct.known_im = cf[slot + hn];
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

ArchiveCampaignResult run_campaign_to_archive(const falcon::SecretKey& sk,
                                              const CampaignConfig& config,
                                              const std::string& path,
                                              std::size_t traces_per_chunk) {
  const unsigned logn = sk.params.logn;
  const std::size_t hn = sk.params.n >> 1;

  ChaCha20Prng victim_rng(config.seed ^ 0x5167);
  EmDeviceModel device(config.device, config.seed ^ 0xD01CE);
  LastWindowRecorder recorder(hn, config.row);
  const SignerFn signer = config.signer ? config.signer : SignerFn(&falcon::sign);

  ArchiveCampaignResult out;
  CampaignTelemetry telemetry(config, "archive");
  const FaultPlan fplan(config.faults);
  tracestore::ArchiveWriter writer;
  tracestore::TraceRecord rec;
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    const std::string message = "trace-" + std::to_string(d);
    recorder.start_run();
    falcon::Signature sig;
    {
      fpr::ScopedLeakageSink scope(&recorder);
      sig = signer(sk, message, victim_rng);
    }
    const std::uint64_t gq = config.fault_query_offset + d;
    const QueryFault qf = fplan.enabled() ? fplan.query_fault(gq) : QueryFault{};
    if (qf.drop) {
      // Missed trigger: the victim signed (its RNG stream advanced as
      // usual) but the scope captured nothing -- no records, no FFT(c)
      // recomputation, the query index simply never appears on disk.
      obs::MetricsRegistry::global().counter("sca.faults.dropped_queries").add(1);
      ++out.queries;
      telemetry.on_query(recorder, d + 1, 0);
      continue;
    }
    if (qf.desync != 0) {
      obs::MetricsRegistry::global().counter("sca.faults.desynced_queries").add(1);
    }
    if (qf.saturate) {
      obs::MetricsRegistry::global().counter("sca.faults.saturated_queries").add(1);
    }
    const auto cf = known_fft_of_hash(sig, message, logn);
    for (std::size_t s = 0; s < hn; ++s) {
      Trace trace = device.synthesize(recorder.window(s));
      if (!writer.is_open()) {
        // First captured window fixes the archive's trace length.
        const auto meta =
            make_archive_meta(sk, config, trace.samples.size(), traces_per_chunk);
        if (!writer.open(path, meta)) {
          out.error = writer.error();
          return out;
        }
      }
      if (trace.samples.size() != writer.meta().samples_per_trace) {
        out.error = "signer produced a ragged window length at query " +
                    std::to_string(d) + ", slot " + std::to_string(s);
        return out;
      }
      if (fplan.enabled()) apply_trace_faults(fplan, qf, gq, s, trace.samples);
      rec.slot = static_cast<std::uint32_t>(s);
      rec.index = static_cast<std::uint32_t>(d);
      rec.known_re_bits = cf[s].bits();
      rec.known_im_bits = cf[s + hn].bits();
      rec.samples = std::move(trace.samples);
      if (!writer.append(rec)) {
        out.error = writer.error();
        return out;
      }
      ++out.records;
    }
    ++out.queries;
    telemetry.on_query(recorder, d + 1, hn);
  }
  if (!writer.is_open()) {
    if (config.num_traces == 0) {
      out.error = "archive campaign needs at least one query";
      return out;
    }
    // Every query dropped (possible for a small shard under a harsh
    // plan): emit a valid empty archive so sharded merges still work.
    // The recorder holds the last run's windows, which fixes the length.
    const Trace probe = device.synthesize(recorder.window(0));
    const auto meta = make_archive_meta(sk, config, probe.samples.size(), traces_per_chunk);
    if (!writer.open(path, meta)) {
      out.error = writer.error();
      return out;
    }
  }
  if (!writer.close()) {
    out.error = writer.error();
    return out;
  }
  telemetry.finish(out.queries, out.records);
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

ShardedCampaignResult run_campaign_sharded(const falcon::SecretKey& sk,
                                           const ShardedCampaignConfig& config,
                                           const std::string& path, exec::ThreadPool* pool,
                                           std::size_t traces_per_chunk) {
  ShardedCampaignResult out;
  if (config.base.num_traces == 0) {
    out.error = "sharded campaign needs at least one query";
    return out;
  }
  const auto plan = exec::static_chunks(config.base.num_traces,
                                        std::max<std::size_t>(1, config.num_shards));
  out.shards = plan.size();

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

  std::vector<ArchiveCampaignResult> shard_results(plan.size());
  std::vector<std::string> shard_paths(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    shard_paths[i] = path + ".shard" + std::to_string(i);
  }

  exec::parallel_for(pool, plan.size(), [&](std::size_t i) {
    CampaignConfig shard_cfg = config.base;
    shard_cfg.num_traces = plan[i].size();
    shard_cfg.seed = exec::split_seed(config.base.seed, i);
    // Faults key on campaign-global query indices so the shard plan
    // never changes which queries fault; chunk damage is deferred to the
    // merged file (chunk ordinals are only meaningful there).
    shard_cfg.fault_query_offset = config.base.fault_query_offset + plan[i].begin;
    shard_cfg.faults.chunk_corrupt_rate = 0.0;
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
    shard_results[i] = run_campaign_to_archive(sk, shard_cfg, shard_paths[i], traces_per_chunk);
  });

  const auto cleanup = [&] {
    if (config.keep_shards) return;
    for (const auto& p : shard_paths) std::remove(p.c_str());
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!shard_results[i].ok) {
      out.error = "shard " + std::to_string(i) + ": " + shard_results[i].error;
      cleanup();
      return out;
    }
    out.queries += shard_results[i].queries;
    out.records += shard_results[i].records;
  }

  // Merge in shard-index order -- the deterministic reduction. The
  // barrier above guarantees every shard file is complete first.
  std::string merge_error;
  if (!tracestore::merge_archives(shard_paths, path, &merge_error)) {
    out.error = "merge: " + merge_error;
    cleanup();
    return out;
  }
  cleanup();
  // Chunk damage applies to the merged file: its chunk ordinals are the
  // experiment-visible ones (a pure function of key/config/num_shards),
  // so the damaged byte set is deterministic too.
  if (config.base.faults.chunk_corrupt_rate > 0.0) {
    std::string cerr;
    if (!corrupt_archive_chunks(path, FaultPlan(config.base.faults), nullptr, &cerr)) {
      out.error = cerr;
      return out;
    }
  }
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

bool load_trace_set(tracestore::ArchiveReader& reader, std::size_t slot, TraceSet& out) {
  if (!reader.is_open() || slot >= reader.meta().num_slots) return false;
  reader.rewind();
  out.slot = slot;
  out.traces.clear();
  tracestore::TraceRecord rec;
  while (reader.next(rec)) {
    if (rec.slot != slot) continue;
    CapturedTrace ct;
    ct.trace.samples = std::move(rec.samples);
    ct.known_re = Fpr::from_bits(rec.known_re_bits);
    ct.known_im = Fpr::from_bits(rec.known_im_bits);
    out.traces.push_back(std::move(ct));
  }
  return true;
}

bool load_all_trace_sets(tracestore::ArchiveReader& reader, std::vector<TraceSet>& out) {
  if (!reader.is_open()) return false;
  reader.rewind();
  const std::size_t hn = reader.meta().num_slots;
  out.assign(hn, TraceSet{});
  for (std::size_t s = 0; s < hn; ++s) out[s].slot = s;
  tracestore::TraceRecord rec;
  while (reader.next(rec)) {
    if (rec.slot >= hn) continue;  // defensive: record from a foreign layout
    CapturedTrace ct;
    ct.trace.samples = std::move(rec.samples);
    ct.known_re = Fpr::from_bits(rec.known_re_bits);
    ct.known_im = Fpr::from_bits(rec.known_im_bits);
    out[rec.slot].traces.push_back(std::move(ct));
  }
  return true;
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
  const unsigned logn = sk.params.logn;
  const std::size_t hn = sk.params.n >> 1;

  ChaCha20Prng victim_rng(config.seed ^ 0x5167);
  EmDeviceModel device(config.device, config.seed ^ 0xD01CE);
  LastWindowRecorder recorder(hn, config.row);
  const SignerFn signer = config.signer ? config.signer : SignerFn(&falcon::sign);

  CampaignTelemetry telemetry(config, "inmemory");
  const FaultPlan fplan(config.faults);
  std::vector<TraceSet> sets(hn);
  for (std::size_t s = 0; s < hn; ++s) {
    sets[s].slot = s;
    sets[s].traces.reserve(config.num_traces);
  }
  std::size_t captured = 0;
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    const std::string message = "trace-" + std::to_string(d);
    recorder.start_run();
    falcon::Signature sig;
    {
      fpr::ScopedLeakageSink scope(&recorder);
      sig = signer(sk, message, victim_rng);
    }
    const std::uint64_t gq = config.fault_query_offset + d;
    const QueryFault qf = fplan.enabled() ? fplan.query_fault(gq) : QueryFault{};
    if (qf.drop) {
      obs::MetricsRegistry::global().counter("sca.faults.dropped_queries").add(1);
      telemetry.on_query(recorder, d + 1, 0);
      continue;
    }
    if (qf.desync != 0) {
      obs::MetricsRegistry::global().counter("sca.faults.desynced_queries").add(1);
    }
    if (qf.saturate) {
      obs::MetricsRegistry::global().counter("sca.faults.saturated_queries").add(1);
    }
    const auto cf = known_fft_of_hash(sig, message, logn);
    for (std::size_t s = 0; s < hn; ++s) {
      CapturedTrace ct;
      ct.trace = device.synthesize(recorder.window(s));
      if (fplan.enabled()) apply_trace_faults(fplan, qf, gq, s, ct.trace.samples);
      ct.known_re = cf[s];
      ct.known_im = cf[s + hn];
      sets[s].traces.push_back(std::move(ct));
    }
    ++captured;
    telemetry.on_query(recorder, d + 1, hn);
  }
  telemetry.finish(config.num_traces, captured * hn);
  return sets;
}

}  // namespace fd::sca
