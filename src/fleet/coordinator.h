#pragma once
// Fleet coordinator: shards one recovery campaign across worker
// processes (DESIGN.md section 12).
//
// run_fleet is the recovery driver of attack/recovery_pipeline.h over
// the fleet executor: capture shards and component-range attack shards
// execute in `fd-attack --worker` subprocesses spawned over pipes
// (fork/exec, no external deps) or on remote `--serve` workers. The
// coordinator itself only spawns, transports, watches heartbeats,
// reassigns, stages files and tracks archive generations; capture
// retries, re-measurement, flagging, assembly and forging are the
// driver's. Its stages are `spawn`, then the driver's.
//
// Determinism contract: the recovered key is a pure function of
// (victim seed, FleetConfig experiment knobs) and BIT-IDENTICAL to the
// single-process pipeline at any worker count --
//   - capture tasks run sca::shard_campaign_configs' shards (same
//     split_seed lanes, same fault offsets) and merge through
//     sca::finish_sharded_capture (shard-index order, chunk damage on
//     the merged file), exactly as run_campaign_sharded does;
//   - components are independent, so partitioning them into shards
//     cannot change any per-component result; the coordinator merges
//     results by global component id;
//   - the component-shard size (components_per_shard) matches the
//     pipeline's checkpoint_every batching, so `attack.archive.scans`
//     totals agree with a checkpointed single-process run too.
// tests/test_fleet.cpp pins all of this at 1, 2, and 4 workers.
//
// Robustness: a worker that stops heartbeating, exits nonzero, dies of
// SIGKILL, or writes a corrupt frame is killed and reaped; its task
// goes back on the queue with bounded retries and exponential backoff,
// and a replacement worker is spawned. Reassigned attack shards resume
// from the dead worker's .fdckpt (task-stable path), so completed
// components are never recomputed. A shard that exhausts its retry
// budget degrades the run to `partial` with its components flagged --
// capture shards are load-bearing (no archive, no attack) and fail the
// run instead.
//
// Telemetry: every worker's obs JSONL lines arrive as kTelemetry
// frames and land in one unified file, each line tagged with
// `"worker":<id>`; the coordinator adds its own fleet.* lines (worker
// lifecycle, task assignment, reassignment) and the driver's events
// (re-measurement rounds). The file is flushed per line, so
// `fd-report --follow` tails a live run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/recovery_pipeline.h"
#include "fleet/net_faults.h"

namespace fd::fleet {

// A remote worker running `fd-attack --serve host:port`.
struct RemoteEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

struct FleetConfig {
  // The experiment, in single-process pipeline terms. Honoured fields:
  // attack (threads = PER-WORKER pool size), capture_shards,
  // archive_path, keep_archive, faults, quality, remeasure, adaptive,
  // checkpoint_every (worker persist cadence). The pipeline's own
  // checkpoint, resume, abort_after_components and interrupt_flag are
  // ignored -- fleet checkpointing is per-shard and always on.
  attack::RecoveryPipelineConfig pipeline;

  unsigned logn = 5;
  // Both coordinator and workers regenerate the victim from this keygen
  // seed string; the secret never crosses a pipe.
  std::string victim_seed = "victim key seed";

  std::size_t workers = 2;             // worker processes kept alive
  std::size_t components_per_shard = 8;  // attack task granularity
  std::string worker_binary;           // fd-attack path (execs "--worker")
  std::string telemetry_path;          // unified JSONL; empty = no file
  // Resource-sampler cadence for coordinator AND workers; only active
  // while telemetry_path is set. 0 disables sampling.
  std::size_t profile_interval_ms = 25;

  std::size_t heartbeat_interval_ms = 25;
  std::size_t heartbeat_timeout_ms = 5000;
  std::size_t max_task_attempts = 3;   // per task, incl. the first
  std::size_t backoff_base_ms = 0;     // attempt k waits base << (k-1)

  // Remote workers (`fd-attack --serve`) joined into the same shard
  // plan as the local pipe workers. When any remotes are listed,
  // `workers` counts LOCAL pipe workers and may be 0 (remote-only
  // fleet). Remote tasks run in staged mode: output paths are remapped
  // into the server's work dir, capture shards stream back over kFile*
  // frames, and the merged archive is pushed before attack tasks.
  std::vector<RemoteEndpoint> remotes;
  std::string session_token = "fd-fleet";  // kAuth handshake token
  std::size_t connect_timeout_ms = 2000;
  std::size_t write_deadline_ms = 5000;  // per-frame TCP write deadline
  std::size_t stage_chunk_bytes = 64u << 10;

  // Reconnect-with-resume: a dropped remote connection is re-dialled
  // through exec::RetryPolicy (bounded attempts, base << (k-1) backoff
  // with seeded jitter) before the worker is declared dead and its task
  // reassigned. attempts include the first re-dial.
  std::size_t reconnect_attempts = 3;
  std::size_t reconnect_backoff_ms = 10;
  double reconnect_jitter = 0.0;

  // Deterministic network-fault injection applied to every remote
  // connection (DESIGN.md section 15). Inactive when no rate is set.
  NetFaultConfig net_faults;

  // Failure-injection hooks (robustness tests; inactive by default).
  // Applied to one attack shard's FIRST attempt only, so the retry
  // completes: kill_shard arms kill_after (worker SIGKILLs itself after
  // that many components persisted), hang_shard arms hang_ms (worker
  // mutes heartbeats and stalls -> timeout path).
  std::size_t kill_shard = static_cast<std::size_t>(-1);
  std::uint32_t kill_after = 0;
  std::size_t hang_shard = static_cast<std::size_t>(-1);
  std::uint32_t hang_ms = 0;
};

// The driver's result (stages, key, flags, per-component state as it
// entered assembly) plus the fleet's mechanics.
struct FleetResult : attack::RecoveryPipelineResult {
  std::size_t workers_spawned = 0;
  std::size_t worker_deaths = 0;   // timeouts + crashes + nonzero exits
  std::size_t reassignments = 0;   // tasks re-queued after a death
  std::size_t remote_workers = 0;  // remote endpoints connected
  std::size_t reconnects = 0;      // remote links re-established in place
  std::size_t staged_chunks = 0;   // kFileChunk frames accepted
  std::size_t attack_shards = 0;   // attack tasks dispatched (all rounds)
  std::uint64_t archive_scans = 0; // summed worker scan deltas
  std::size_t telemetry_lines = 0; // lines written to telemetry_path
};

// Runs the fleet campaign. The victim is generated internally from
// (config.logn, config.victim_seed) -- compare against a single-process
// run on a victim generated the same way.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

}  // namespace fd::fleet
