#pragma once
// Measurement campaigns: run the victim signer under the capture rig and
// produce aligned, per-coefficient trace sets together with the
// adversary's known inputs.
//
// The known-plaintext model of the paper: the adversary sees each output
// signature (salt r, s) and the EM emission of the signing run. From
// (r, message) it recomputes c = HashToPoint(r||m) and FFT(c) with the
// public code, so for every captured window it knows the exact 64-bit
// operand that was multiplied with the secret FFT(f) coefficient.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "falcon/keys.h"
#include "falcon/sign.h"
#include "fpr/fpr.h"
#include "sca/device.h"
#include "sca/faults.h"
#include "tracestore/archive.h"

namespace fd::sca {

struct CapturedTrace {
  Trace trace;
  fpr::Fpr known_re;  // Re FFT(c)[slot], recomputed by the adversary
  fpr::Fpr known_im;  // Im FFT(c)[slot]
};

struct TraceSet {
  std::size_t slot = 0;  // complex slot index in [0, n/2)
  std::vector<CapturedTrace> traces;
};

struct CampaignConfig {
  std::size_t num_traces = 1000;
  DeviceConfig device;
  // Root of the per-query victim and device-noise streams (DESIGN.md
  // section 25).
  std::uint64_t seed = 1;
  // The victim runs falcon::sign_capture: the plain target computation,
  // or with `masked` sign_masked's two-share one (the countermeasure
  // study of masked_sign.h).
  bool masked = false;
  // Which basis-row multiplication to capture: each signing run triggers
  // every slot once per row, f-row (t1, FFT(-f)) first then F-row (t0,
  // FFT(-F)). 0 captures the f-row windows, 1 the F-row windows.
  unsigned row = 0;
  // Observability hook (no effect on captured data): when
  // `progress_every` > 0 and `progress` is set, the callback fires
  // after every that many signing queries, and once more at
  // completion. Campaigns also feed the global obs::MetricsRegistry
  // (sca.campaign.* counters/gauges) and the span histograms.
  std::function<void(std::size_t done, std::size_t total)> progress;
  std::size_t progress_every = 0;
  // Deterministic rig-failure injection (sca/faults.h). The all-zero
  // default is the pristine rig: capture behaves bit-identically to a
  // build without the fault layer. Applied by the full-campaign and
  // archive paths (drop/desync/saturate/glitch in-band, chunk damage
  // post-write); capture_fail_rate is the *caller's* retry surface
  // (recovery pipeline), never acted on here.
  FaultConfig faults;
  // Campaign-global index of this run's first query: sharded capture
  // sets it to the shard's range start so the fault plan keys on global
  // query indices and the shard decomposition never changes which
  // queries fault.
  std::size_t fault_query_offset = 0;
};

// Captures the FFT(c) (.) FFT(-f) window of one complex slot over
// `num_traces` signing queries on distinct messages.
[[nodiscard]] TraceSet run_signing_campaign(const falcon::SecretKey& sk, std::size_t slot,
                                            const CampaignConfig& config);

// Captures every slot's window in each signing run (one signature feeds
// all n/2 per-coefficient trace sets). Memory is O(num_traces * n * 40).
[[nodiscard]] std::vector<TraceSet> run_full_campaign(const falcon::SecretKey& sk,
                                                      const CampaignConfig& config);

// --- persistent capture (capture once, attack many) -----------------------
//
// The archive mode is the bit-exact twin of run_full_campaign: the same
// victim/device RNG streams, the same per-query slot order, but every
// (query, slot) window goes straight to disk as a tracestore record, so
// capture memory is O(n) per query regardless of num_traces. Shards
// captured under different seeds merge with tracestore::merge_archives.

// Archive metadata describing a campaign under this config.
[[nodiscard]] tracestore::ArchiveMeta make_archive_meta(const falcon::SecretKey& sk,
                                                        const CampaignConfig& config,
                                                        std::size_t samples_per_trace,
                                                        std::size_t traces_per_chunk);

struct ArchiveCampaignResult {
  std::size_t queries = 0;  // queries run, dropped ones included
  std::size_t records = 0;  // (query, slot) windows written
  bool ok = false;
  std::string error;
};
// Runs the campaign and streams it into `path` (.fdtrace). The trace
// length is taken from the first captured window; a signer whose window
// length varies across queries is rejected rather than written ragged.
[[nodiscard]] ArchiveCampaignResult run_campaign_to_archive(
    const falcon::SecretKey& sk, const CampaignConfig& config, const std::string& path,
    std::size_t traces_per_chunk = tracestore::kDefaultTracesPerChunk);

// --- sharded capture (src/exec) -------------------------------------------
//
// Parallel capture with a deterministic contract: the campaign's
// `num_traces` queries are cut into `num_shards` contiguous ranges, and
// shard i runs `run_campaign_to_archive` under the derived seed
// exec::split_seed(config.seed, i) -- an independent victim/device
// randomness stream per shard, fixed by (seed, shard index) alone.
// Shards execute on the pool in any order; the final archive is
// `tracestore::merge_archives` over the shard files in shard-index
// order, so its bytes are a pure function of (key, config, num_shards)
// -- identical at ANY worker count, including the serial pool-less
// path. tests/test_exec.cpp pins this byte-for-byte at 1, 2, and 7
// workers.
//
// Note the shard count, not the worker count, is part of the
// experiment's identity: resizing the pool never changes the data,
// changing num_shards deliberately does (different RNG streams).

struct ShardedCampaignConfig {
  CampaignConfig base;          // base.seed is the root seed of the shard tree
  std::size_t num_shards = 1;   // fixed shard plan (capped at base.num_traces)
  bool keep_shards = false;     // leave <path>.shard<i> files behind after the merge
};

struct ShardedCampaignResult {
  std::size_t queries = 0;   // signing runs captured across all shards
  std::size_t records = 0;   // (query, slot) windows written
  std::size_t shards = 0;
  std::vector<std::string> shard_paths;  // populated when keep_shards
  bool ok = false;
  std::string error;
};

// The per-shard recipe of a sharded campaign: one CampaignConfig per
// shard of `config`'s fixed plan. Shard i captures its contiguous query
// range under the seed lane exec::split_seed(base.seed, i), keys its
// faults on campaign-global query indices (fault_query_offset = base
// offset + range start) and carries no chunk damage: chunk ordinals are
// only meaningful in the merged file, where finish_sharded_capture
// applies it. run_campaign_sharded runs these shards on a thread pool;
// the fleet coordinator runs them as worker capture tasks.
[[nodiscard]] std::vector<CampaignConfig> shard_campaign_configs(
    const ShardedCampaignConfig& config);

// Completes a sharded capture whose shard files are written: merges
// them in shard-index order into `path` (a lone shard already written
// to `path` itself is kept as it is), removes the shard files unless
// config.keep_shards, and applies config.base.faults' deferred chunk
// damage to the merged file.
[[nodiscard]] bool finish_sharded_capture(const ShardedCampaignConfig& config,
                                          std::span<const std::string> shard_paths,
                                          const std::string& path, std::string* error);

// Runs the sharded campaign on `pool` (null -> serial, same results)
// and merges into `path`. Progress callbacks of `config.base` fire with
// campaign-global query counts; under a real pool they arrive from
// worker threads (the obs layer and the callback must be thread-safe).
[[nodiscard]] ShardedCampaignResult run_campaign_sharded(
    const falcon::SecretKey& sk, const ShardedCampaignConfig& config, const std::string& path,
    exec::ThreadPool* pool, std::size_t traces_per_chunk = tracestore::kDefaultTracesPerChunk);

// Adversary-side reload, the one TraceSet loader: ONE rewind+scan
// fills out[i] with slots[i]'s records in archive order (pass every
// slot for the archive equivalent of run_full_campaign's return value).
// Slots must be unique and in range. Memory is O(records of the
// requested slots).
[[nodiscard]] bool load_trace_sets_for(tracestore::ArchiveReader& reader,
                                       std::span<const std::size_t> slots,
                                       std::vector<TraceSet>& out);

}  // namespace fd::sca
