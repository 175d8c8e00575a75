// Fleet mode (DESIGN.md section 12): wire protocol round-trips and the
// orchestration acceptance pins:
//
//   - a fleet at 1, 2, and 4 workers recovers a BYTE-IDENTICAL key,
//     identical per-component results/accepted sets, an identical
//     captured archive, and identical attack.archive.scans totals vs
//     the single-process checkpointed pipeline;
//   - SIGKILLing a worker mid-shard completes the campaign through
//     reassignment (resuming the dead worker's checkpoint) with the
//     same key; a hung worker goes down the heartbeat-timeout path;
//   - a shard that exhausts its retry budget degrades the run to
//     `partial` with its components flagged;
//   - a faulted adaptive run (rig-down retries, re-measurement rounds,
//     flagged components) takes the same path as the pipeline;
//   - the SIGTERM/interrupt contract of tools/fd_attack.cpp: stop at a
//     batch boundary with a final checkpoint, resume bit-identically.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "attack/checkpoint.h"
#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "fleet/coordinator.h"
#include "fleet/protocol.h"
#include "obs/jsonl.h"

namespace fd {
namespace {

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

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t> result_bytes(const attack::ComponentResult& r) {
  std::vector<std::uint8_t> out;
  attack::serialize_component_result(out, r);
  return out;
}

// The same experiment in fleet and single-process terms. Sized so one
// run takes tens of milliseconds: logn 3 = 8 components, two attack
// shards of 4.
constexpr std::size_t kTraces = 240;
constexpr std::uint64_t kSeed = 0xFD06;

attack::RecoveryPipelineConfig base_pipeline(const std::string& archive) {
  attack::RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = kTraces;
  cfg.attack.device.noise_sigma = 2.0;
  cfg.attack.adversarial_random = 100;
  cfg.attack.seed = kSeed;
  cfg.archive_path = archive;
  cfg.capture_shards = 2;
  cfg.checkpoint_every = 4;
  return cfg;
}

fleet::FleetConfig base_fleet(const std::string& archive, std::size_t workers) {
  fleet::FleetConfig fc;
  fc.logn = 3;
  fc.pipeline = base_pipeline(archive);
  fc.workers = workers;
  fc.components_per_shard = 4;  // == checkpoint_every: scan parity
#ifdef FD_ATTACK_BIN
  fc.worker_binary = FD_ATTACK_BIN;
#endif
  return fc;
}

falcon::KeyPair fleet_victim(unsigned logn = 3) {
  // The same keygen seed run_fleet uses internally, so single-process
  // reference runs attack the identical key.
  ChaCha20Prng rng("victim key seed");
  return falcon::keygen(logn, rng);
}

// --- frame protocol --------------------------------------------------------

TEST(FleetProtocol, FramesSurviveArbitraryFragmentation) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> p1 = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> p2 = {};
  std::vector<std::uint8_t> p3(1000);
  for (std::size_t i = 0; i < p3.size(); ++i) p3[i] = static_cast<std::uint8_t>(i * 7);
  fleet::encode_frame(wire, fleet::FrameType::kTask, p1);
  fleet::encode_frame(wire, fleet::FrameType::kHeartbeat, p2);
  fleet::encode_frame(wire, fleet::FrameType::kTelemetry, p3);

  const auto decode_all = [&](std::size_t step) {
    fleet::FrameDecoder dec;
    std::vector<fleet::Frame> frames;
    for (std::size_t off = 0; off < wire.size(); off += step) {
      const std::size_t n = std::min(step, wire.size() - off);
      dec.feed(std::span<const std::uint8_t>(wire.data() + off, n));
      fleet::Frame f;
      while (dec.next(f)) frames.push_back(f);
    }
    return frames;
  };

  for (const std::size_t step : {wire.size(), std::size_t{1}, std::size_t{7}}) {
    const auto frames = decode_all(step);
    ASSERT_EQ(frames.size(), 3u) << "step " << step;
    EXPECT_EQ(frames[0].type, fleet::FrameType::kTask);
    EXPECT_EQ(frames[0].payload, p1);
    EXPECT_EQ(frames[1].type, fleet::FrameType::kHeartbeat);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_EQ(frames[2].type, fleet::FrameType::kTelemetry);
    EXPECT_EQ(frames[2].payload, p3);
  }
}

TEST(FleetProtocol, CorruptStreamLatches) {
  fleet::FrameDecoder dec;
  const std::uint8_t garbage[] = {'n', 'o', 't', ' ', 'a', ' ', 'f', 'r', 'a', 'm', 'e', '!'};
  dec.feed(garbage);
  fleet::Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.corrupt());
  EXPECT_FALSE(dec.error().empty());

  // A valid frame after the garbage is NOT recovered -- no resync by
  // design; the coordinator kills the worker instead.
  std::vector<std::uint8_t> good;
  fleet::encode_frame(good, fleet::FrameType::kHello, {});
  dec.feed(good);
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.corrupt());
}

TEST(FleetProtocol, BadVersionAndOversizeLengthRejected) {
  std::vector<std::uint8_t> wire;
  fleet::encode_frame(wire, fleet::FrameType::kHello, {});
  {
    auto bad = wire;
    bad[4] = 0xFF;  // version LSB
    fleet::FrameDecoder dec;
    dec.feed(bad);
    fleet::Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_TRUE(dec.corrupt());
  }
  {
    auto bad = wire;
    bad[8] = 0xFF;  // payload_len bytes -> far beyond kMaxPayload
    bad[9] = 0xFF;
    bad[10] = 0xFF;
    bad[11] = 0xFF;
    fleet::FrameDecoder dec;
    dec.feed(bad);
    fleet::Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_TRUE(dec.corrupt());
  }
}

TEST(FleetProtocol, SessionRejectsParentLayoutWithSinglePassByte) {
  // Protocol v5 carried a single_pass byte between the quality config
  // and the six u64 fields that end the payload; v6 dropped it (and v7
  // kept v6's session layout), so a v5 payload is one byte long and
  // must not decode.
  EXPECT_EQ(fleet::kProtocolVersion, 7U);
  fleet::SessionConfig s;
  std::vector<std::uint8_t> bytes;
  fleet::encode_session(bytes, s);
  fleet::SessionConfig back;
  ASSERT_TRUE(fleet::decode_session(bytes, back));
  bytes.insert(bytes.end() - 6 * 8, std::uint8_t{1});
  EXPECT_FALSE(fleet::decode_session(bytes, back));
}

TEST(FleetProtocol, TaskRejectsParentLayoutWithFailureHookByte) {
  // Protocol v6 carried a failure-injection byte between hang_ms and
  // the 22 bytes that end a task (parent_span, backend, stage,
  // stage_have_chunks, archive_generation); v7 has none, so a v6
  // payload is one byte longer and must not decode.
  fleet::TaskSpec spec;
  spec.components = {1, 2};
  std::vector<std::uint8_t> bytes;
  fleet::encode_task(bytes, spec);
  fleet::TaskSpec back;
  ASSERT_TRUE(fleet::decode_task(bytes, back));
  bytes.insert(bytes.end() - 22, std::uint8_t{0});
  EXPECT_FALSE(fleet::decode_task(bytes, back));
}

// A session frame whose device config EmDeviceModel would refuse never
// decodes, so a worker never builds a capture it cannot run.
bool session_decodes_with(void (*edit)(sca::DeviceConfig&)) {
  fleet::SessionConfig s;
  edit(s.attack.device);
  std::vector<std::uint8_t> bytes;
  fleet::encode_session(bytes, s);
  fleet::SessionConfig back;
  return fleet::decode_session(bytes, back);
}

TEST(FleetProtocol, SessionAcceptsValidDeviceConfig) {
  EXPECT_TRUE(session_decodes_with([](sca::DeviceConfig& d) {
    d.samples_per_event = 3;
    d.jitter_max = 7;
  }));
}

TEST(FleetProtocol, SessionRejectsZeroSamplesPerEvent) {
  EXPECT_FALSE(session_decodes_with([](sca::DeviceConfig& d) { d.samples_per_event = 0; }));
}

TEST(FleetProtocol, SessionRejectsWrappingJitter) {
  EXPECT_FALSE(session_decodes_with([](sca::DeviceConfig& d) { d.jitter_max = 0xFFFFFFFFU; }));
}

TEST(FleetProtocol, SessionRejectsWindowPastCap) {
  // Under the archive record bound, but ~12 GiB of buffers in one window.
  EXPECT_FALSE(
      session_decodes_with([](sca::DeviceConfig& d) { d.samples_per_event = 14'000'000; }));
  EXPECT_FALSE(session_decodes_with([](sca::DeviceConfig& d) {
    d.jitter_max = static_cast<unsigned>(sca::window::kMaxSamples - sca::window::kEventsPerWindow + 1);
  }));
  EXPECT_TRUE(session_decodes_with([](sca::DeviceConfig& d) {
    d.jitter_max = static_cast<unsigned>(sca::window::kMaxSamples - sca::window::kEventsPerWindow);
  }));
}

TEST(FleetProtocol, SessionRejectsNonFiniteAlphaOrSigma) {
  EXPECT_FALSE(session_decodes_with([](sca::DeviceConfig& d) { d.alpha = std::nan(""); }));
  EXPECT_FALSE(session_decodes_with([](sca::DeviceConfig& d) { d.noise_sigma = INFINITY; }));
}

TEST(FleetProtocol, SessionRoundTrip) {
  fleet::SessionConfig s;
  s.logn = 7;
  s.victim_seed = "a different victim";
  s.attack.num_traces = 1234;
  s.attack.device.alpha = 1.25;
  s.attack.device.noise_sigma = 3.5;
  s.attack.device.samples_per_event = 9;
  s.attack.device.jitter_max = 4;
  s.attack.device.constant_weight = true;
  s.attack.extend_top_k = 17;
  s.attack.adversarial_random = 99;
  s.attack.cpa_batch = 33;
  s.attack.seed = 0xABCDEF0123456789ULL;
  s.attack.threads = 3;
  s.attack.cpa_shards = 5;
  s.faults.drop_rate = 0.125;
  s.faults.desync_rate = 0.0625;
  s.faults.desync_min = 11;
  s.faults.desync_max = 77;
  s.faults.saturate_rate = 0.25;
  s.faults.saturate_level = 19.5;
  s.faults.glitch_rate = 0.03125;
  s.faults.glitch_amplitude = 321.0;
  s.faults.chunk_corrupt_rate = 0.015625;
  s.faults.capture_fail_rate = 0.5;
  s.faults.seed = 0xFA0;
  s.quality.enabled = true;
  s.quality.saturation_pinned_frac = 0.07;
  s.quality.saturation_min_pinned = 5;
  s.quality.energy_mad_k = 6.5;
  s.quality.max_lag = 3;
  s.quality.min_alignment_corr = 0.625;
  s.quality.refine_iters = 4;
  s.checkpoint_every = 3;
  s.session_hash = 0x1122334455667788ULL;
  s.heartbeat_interval_ms = 123;
  s.trace_id = 0x99AABBCCDDEEFF00ULL;
  s.profile_interval_ms = 15;

  std::vector<std::uint8_t> bytes;
  fleet::encode_session(bytes, s);
  fleet::SessionConfig back;
  ASSERT_TRUE(fleet::decode_session(bytes, back));
  EXPECT_EQ(back.logn, s.logn);
  EXPECT_EQ(back.victim_seed, s.victim_seed);
  EXPECT_EQ(back.attack.num_traces, s.attack.num_traces);
  EXPECT_EQ(back.attack.device.alpha, s.attack.device.alpha);
  EXPECT_EQ(back.attack.device.noise_sigma, s.attack.device.noise_sigma);
  EXPECT_EQ(back.attack.device.samples_per_event, s.attack.device.samples_per_event);
  EXPECT_EQ(back.attack.device.jitter_max, s.attack.device.jitter_max);
  EXPECT_EQ(back.attack.device.constant_weight, s.attack.device.constant_weight);
  EXPECT_EQ(back.attack.extend_top_k, s.attack.extend_top_k);
  EXPECT_EQ(back.attack.adversarial_random, s.attack.adversarial_random);
  EXPECT_EQ(back.attack.cpa_batch, s.attack.cpa_batch);
  EXPECT_EQ(back.attack.seed, s.attack.seed);
  EXPECT_EQ(back.attack.threads, s.attack.threads);
  EXPECT_EQ(back.attack.cpa_shards, s.attack.cpa_shards);
  EXPECT_EQ(back.faults.drop_rate, s.faults.drop_rate);
  EXPECT_EQ(back.faults.desync_rate, s.faults.desync_rate);
  EXPECT_EQ(back.faults.desync_min, s.faults.desync_min);
  EXPECT_EQ(back.faults.desync_max, s.faults.desync_max);
  EXPECT_EQ(back.faults.saturate_rate, s.faults.saturate_rate);
  EXPECT_EQ(back.faults.saturate_level, s.faults.saturate_level);
  EXPECT_EQ(back.faults.glitch_rate, s.faults.glitch_rate);
  EXPECT_EQ(back.faults.glitch_amplitude, s.faults.glitch_amplitude);
  EXPECT_EQ(back.faults.chunk_corrupt_rate, s.faults.chunk_corrupt_rate);
  EXPECT_EQ(back.faults.capture_fail_rate, s.faults.capture_fail_rate);
  EXPECT_EQ(back.faults.seed, s.faults.seed);
  EXPECT_EQ(back.quality.enabled, s.quality.enabled);
  EXPECT_EQ(back.quality.saturation_pinned_frac, s.quality.saturation_pinned_frac);
  EXPECT_EQ(back.quality.saturation_min_pinned, s.quality.saturation_min_pinned);
  EXPECT_EQ(back.quality.energy_mad_k, s.quality.energy_mad_k);
  EXPECT_EQ(back.quality.max_lag, s.quality.max_lag);
  EXPECT_EQ(back.quality.min_alignment_corr, s.quality.min_alignment_corr);
  EXPECT_EQ(back.quality.refine_iters, s.quality.refine_iters);
  EXPECT_EQ(back.checkpoint_every, s.checkpoint_every);
  EXPECT_EQ(back.session_hash, s.session_hash);
  EXPECT_EQ(back.heartbeat_interval_ms, s.heartbeat_interval_ms);
  EXPECT_EQ(back.trace_id, s.trace_id);
  EXPECT_EQ(back.profile_interval_ms, s.profile_interval_ms);

  // Decoders are total: every strict prefix is rejected, no throw.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    fleet::SessionConfig t;
    EXPECT_FALSE(fleet::decode_session(
        std::span<const std::uint8_t>(bytes.data(), cut), t))
        << "prefix " << cut << " accepted";
  }
}

TEST(FleetProtocol, TaskAndResultRoundTrip) {
  fleet::TaskSpec spec;
  spec.task_id = 42;
  spec.kind = fleet::TaskKind::kAttack;
  spec.capture_traces = 120;
  spec.capture_seed = 0xC0FFEE;
  spec.fault_query_offset = 360;
  spec.out_path = "out/shard.fdtrace";
  spec.archive_path = "camp.fdtrace";
  spec.checkpoint_path = "camp.fdtrace.task42.fdckpt";
  spec.components = {3, 5, 9, 11};
  spec.kill_after = 2;
  spec.hang_ms = 150;
  spec.parent_span = 0xFEDCBA9876543210ULL;
  std::vector<std::uint8_t> bytes;
  fleet::encode_task(bytes, spec);
  fleet::TaskSpec spec_back;
  ASSERT_TRUE(fleet::decode_task(bytes, spec_back));
  EXPECT_EQ(spec_back.task_id, spec.task_id);
  EXPECT_EQ(spec_back.kind, spec.kind);
  EXPECT_EQ(spec_back.capture_traces, spec.capture_traces);
  EXPECT_EQ(spec_back.capture_seed, spec.capture_seed);
  EXPECT_EQ(spec_back.fault_query_offset, spec.fault_query_offset);
  EXPECT_EQ(spec_back.out_path, spec.out_path);
  EXPECT_EQ(spec_back.archive_path, spec.archive_path);
  EXPECT_EQ(spec_back.checkpoint_path, spec.checkpoint_path);
  EXPECT_EQ(spec_back.components, spec.components);
  EXPECT_EQ(spec_back.kill_after, spec.kill_after);
  EXPECT_EQ(spec_back.hang_ms, spec.hang_ms);
  EXPECT_EQ(spec_back.parent_span, spec.parent_span);

  fleet::TaskResult res;
  res.task_id = 42;
  res.kind = fleet::TaskKind::kAttack;
  res.ok = true;
  res.error = "not really";
  res.queries = 7;
  res.records = 28;
  res.archive_scans = 3;
  res.span = 0x1234000056780000ULL;
  res.quality.total = 100;
  res.quality.accepted = 93;
  res.quality.rejected_saturated = 3;
  res.quality.rejected_energy = 2;
  res.quality.rejected_alignment = 2;
  res.quality.realigned = 5;
  for (std::uint32_t c : {3u, 9u}) {
    fleet::ComponentOutcome o;
    o.component = c;
    o.accepted = 200 + c;
    o.result.sign = (c == 9);
    o.result.exponent = 1020 + c;
    o.result.x0 = 0x1ABCDEF;
    o.result.x1 = 0x89ABCDE | (1u << 27);
    o.result.bits = 0xBFF123456789ABCDULL + c;
    o.result.low_prune.value = 0x155555;
    o.result.low_prune.score = 0.8123456789012345;  // bit-exactness probe
    o.result.high_prune.score = -0.0;               // sign of zero survives
    res.outcomes.push_back(o);
  }
  bytes.clear();
  fleet::encode_result(bytes, res);
  fleet::TaskResult res_back;
  ASSERT_TRUE(fleet::decode_result(bytes, res_back));
  EXPECT_EQ(res_back.task_id, res.task_id);
  EXPECT_EQ(res_back.kind, res.kind);
  EXPECT_EQ(res_back.ok, res.ok);
  EXPECT_EQ(res_back.error, res.error);
  EXPECT_EQ(res_back.queries, res.queries);
  EXPECT_EQ(res_back.records, res.records);
  EXPECT_EQ(res_back.archive_scans, res.archive_scans);
  EXPECT_EQ(res_back.span, res.span);
  EXPECT_EQ(res_back.quality.total, res.quality.total);
  EXPECT_EQ(res_back.quality.accepted, res.quality.accepted);
  EXPECT_EQ(res_back.quality.realigned, res.quality.realigned);
  ASSERT_EQ(res_back.outcomes.size(), res.outcomes.size());
  for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
    EXPECT_EQ(res_back.outcomes[i].component, res.outcomes[i].component);
    EXPECT_EQ(res_back.outcomes[i].accepted, res.outcomes[i].accepted);
    EXPECT_EQ(result_bytes(res_back.outcomes[i].result), result_bytes(res.outcomes[i].result))
        << "component result not bit-exact at " << i;
  }

  fleet::Hello h;
  h.pid = 4321;
  bytes.clear();
  fleet::encode_hello(bytes, h);
  fleet::Hello h2;
  ASSERT_TRUE(fleet::decode_hello(bytes, h2));
  EXPECT_EQ(h2.version, fleet::kProtocolVersion);
  EXPECT_EQ(h2.pid, 4321u);

  fleet::Progress p;
  p.task_id = 42;
  p.completed = 3;
  p.total = 4;
  p.span = 0xA5A5A5A5A5A5A5A5ULL;
  bytes.clear();
  fleet::encode_progress(bytes, p);
  fleet::Progress p2;
  ASSERT_TRUE(fleet::decode_progress(bytes, p2));
  EXPECT_EQ(p2.task_id, 42u);
  EXPECT_EQ(p2.completed, 3u);
  EXPECT_EQ(p2.total, 4u);
  EXPECT_EQ(p2.span, p.span);
}

// --- fleet orchestration ---------------------------------------------------

#ifdef FD_ATTACK_BIN

TEST(Fleet, BitIdenticalToSingleProcessAtAnyWorkerCount) {
  const auto victim = fleet_victim();

  // Single-process reference: checkpointed so the attack stage batches
  // in fours, same as the fleet's component shards -- then the
  // archive-scan totals must agree too.
  TempFile ref_tmp("fleet_ref.fdtrace");
  auto ref_cfg = base_pipeline(ref_tmp.path);
  ref_cfg.checkpoint = true;
  ref_cfg.keep_archive = true;
  const auto ref = attack::run_recovery_pipeline(victim, ref_cfg);
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(ref.recovery.f_exact);
  ASSERT_TRUE(ref.recovery.forgery_verified);
  const auto ref_archive = read_file(ref_tmp.path);
  ASSERT_FALSE(ref_archive.empty());

  std::vector<std::vector<std::uint8_t>> first_results;
  std::vector<std::size_t> first_accepted;
  std::uint64_t first_scans = 0;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    TempFile tmp("fleet_w" + std::to_string(workers) + ".fdtrace");
    auto fc = base_fleet(tmp.path, workers);
    fc.pipeline.keep_archive = true;
    const auto res = fleet::run_fleet(fc);
    ASSERT_TRUE(res.ok) << workers << " workers: " << res.error;
    EXPECT_EQ(res.workers_spawned, workers);
    EXPECT_EQ(res.worker_deaths, 0u);
    EXPECT_EQ(res.attack_shards, 2u);

    // The recovered key is byte-identical to the single-process run.
    EXPECT_EQ(res.recovery.recovered_f, ref.recovery.recovered_f) << workers << " workers";
    EXPECT_TRUE(res.recovery.f_exact);
    EXPECT_TRUE(res.recovery.forgery_verified);
    EXPECT_EQ(res.recovery.components_correct, ref.recovery.components_correct);
    EXPECT_EQ(res.captured_records, ref.captured_records);

    // So is the captured archive (shard seeds + merge order replicate
    // run_campaign_sharded exactly).
    EXPECT_EQ(read_file(tmp.path), ref_archive) << workers << " workers";

    // Per-component results and accepted sets: identical across worker
    // counts, compared as serialized bytes (bit-exact doubles).
    ASSERT_EQ(res.results.size(), victim.sk.params.n);
    std::vector<std::vector<std::uint8_t>> bytes;
    bytes.reserve(res.results.size());
    for (const auto& r : res.results) bytes.push_back(result_bytes(r));
    if (first_results.empty()) {
      first_results = std::move(bytes);
      first_accepted = res.accepted_traces;
      first_scans = res.archive_scans;
    } else {
      EXPECT_EQ(bytes, first_results) << workers << " workers";
      EXPECT_EQ(res.accepted_traces, first_accepted) << workers << " workers";
      EXPECT_EQ(res.archive_scans, first_scans) << workers << " workers";
    }
  }
  // Scan parity with the checkpointed pipeline: two batches of four ->
  // two single-pass scans, in process or across it. (Both sides count
  // zero when the build has FD_OBS=OFF -- the equality still pins.)
  EXPECT_EQ(first_scans, 2u * (FD_OBS_ENABLED ? 1u : 0u));
}

// Two workers over eight attack shards of two components (FALCON-16).
// The coordinator respawns a dead worker only while more work remains
// than live workers; with little work per worker the survivor can drain
// the rest before the faulty one is reaped (a race the attack's speed
// decides), take the requeued shard itself, and no replacement spawns.
// At FALCON-8 (four shards) the lane-parallel attack drained them first
// in 2 of 15 runs of the fleet suite under parallel ctest.
fleet::FleetConfig fault_fleet(const std::string& archive) {
  auto fc = base_fleet(archive, 2);
  fc.logn = 4;
  fc.components_per_shard = 2;
  return fc;
}

TEST(Fleet, SigkillMidShardCompletesViaReassignment) {
  TempFile clean_tmp("fleet_clean.fdtrace");
  const auto clean = fleet::run_fleet(fault_fleet(clean_tmp.path));
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_TRUE(clean.recovery.f_exact);

  TempFile tmp("fleet_kill.fdtrace");
  auto fc = fault_fleet(tmp.path);
  fc.pipeline.checkpoint_every = 1;  // kill strikes mid-task, after 1 of 2
  fc.kill_shard = 0;
  fc.kill_after = 1;
  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.worker_deaths, 1u);
  EXPECT_GE(res.reassignments, 1u);
  EXPECT_GT(res.workers_spawned, 2u);  // a replacement was spawned

  // Same key, same per-component results: the retry resumed from the
  // dead worker's checkpoint and finished the shard bit-identically.
  EXPECT_EQ(res.recovery.recovered_f, clean.recovery.recovered_f);
  EXPECT_TRUE(res.recovery.f_exact);
  EXPECT_TRUE(res.recovery.forgery_verified);
  ASSERT_EQ(res.results.size(), clean.results.size());
  for (std::size_t i = 0; i < res.results.size(); ++i) {
    EXPECT_EQ(result_bytes(res.results[i]), result_bytes(clean.results[i])) << "component " << i;
  }
  EXPECT_EQ(res.accepted_traces, clean.accepted_traces);
}

TEST(Fleet, HungWorkerGoesDownTheHeartbeatTimeoutPath) {
  TempFile clean_tmp("fleet_clean2.fdtrace");
  const auto clean = fleet::run_fleet(base_fleet(clean_tmp.path, 2));
  ASSERT_TRUE(clean.ok) << clean.error;

  TempFile tmp("fleet_hang.fdtrace");
  auto fc = base_fleet(tmp.path, 2);
  fc.hang_shard = 0;
  fc.hang_ms = 10000;  // far beyond the timeout; the kill cuts it short
  fc.heartbeat_interval_ms = 10;
  fc.heartbeat_timeout_ms = 250;
  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.worker_deaths, 1u);
  EXPECT_GE(res.reassignments, 1u);
  EXPECT_EQ(res.recovery.recovered_f, clean.recovery.recovered_f);
  EXPECT_TRUE(res.recovery.f_exact);
}

TEST(Fleet, ExhaustedRetryBudgetDegradesToPartial) {
  TempFile tmp("fleet_partial.fdtrace");
  auto fc = base_fleet(tmp.path, 2);
  fc.kill_shard = 0;
  fc.kill_after = 1;
  fc.max_task_attempts = 1;  // the one attempt dies -> permanent failure
  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;  // graceful degradation, not an error
  EXPECT_TRUE(res.partial);
  ASSERT_EQ(res.flagged_components.size(), 4u);  // shard 0 = components 0..3
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(res.flagged_components[i], i);
  EXPECT_FALSE(res.recovery.f_exact);  // half the components defaulted
}

// A hostile rig at FALCON-8: in-band faults, chunk damage, a rig that
// is down for half the capture attempts, the quality gate and adaptive
// re-measurement all armed.
attack::RecoveryPipelineConfig faulted_adaptive(std::size_t traces) {
  auto cfg = base_pipeline("");
  cfg.attack.num_traces = traces;
  cfg.faults.drop_rate = 0.10;
  cfg.faults.desync_rate = 0.05;
  cfg.faults.saturate_rate = 0.02;
  cfg.faults.chunk_corrupt_rate = 0.05;
  cfg.faults.capture_fail_rate = 0.5;
  cfg.remeasure.max_capture_attempts = 8;
  cfg.quality.enabled = true;
  cfg.adaptive = true;
  cfg.keep_archive = true;
  return cfg;
}

// The fleet takes the pipeline's capture-retry, re-measurement and
// flagging path step for step: same attempts, rounds, flags, gate
// counts, archive bytes and key. `ref` receives the pipeline's result.
void expect_fleet_matches_pipeline(const attack::RecoveryPipelineConfig& cfg,
                                   const std::string& tag,
                                   attack::RecoveryPipelineResult& ref) {
  TempFile ref_tmp("fleet_faulted_ref_" + tag + ".fdtrace");
  auto ref_cfg = cfg;
  ref_cfg.archive_path = ref_tmp.path;
  ref = attack::run_recovery_pipeline(fleet_victim(), ref_cfg);
  ASSERT_TRUE(ref.ok) << ref.error;

  TempFile tmp("fleet_faulted_" + tag + ".fdtrace");
  auto fc = base_fleet(tmp.path, 2);
  fc.pipeline = cfg;
  fc.pipeline.archive_path = tmp.path;
  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;

  EXPECT_EQ(res.recovery.recovered_f, ref.recovery.recovered_f);
  EXPECT_EQ(res.capture_attempts, ref.capture_attempts);
  EXPECT_EQ(res.remeasure_rounds, ref.remeasure_rounds);
  EXPECT_EQ(res.flagged_components, ref.flagged_components);
  EXPECT_EQ(res.partial, ref.partial);
  EXPECT_EQ(res.captured_records, ref.captured_records);
  EXPECT_EQ(res.quality.accepted, ref.quality.accepted);
  const auto ref_archive = read_file(ref_tmp.path);
  ASSERT_FALSE(ref_archive.empty());
  EXPECT_EQ(read_file(tmp.path), ref_archive);
}

TEST(Fleet, FaultedAdaptiveRunMatchesPipeline) {
  // Two re-measurement rounds after four capture attempts in all.
  attack::RecoveryPipelineResult ref;
  expect_fleet_matches_pipeline(faulted_adaptive(120), "a", ref);
  EXPECT_EQ(ref.remeasure_rounds, 2u);
  EXPECT_EQ(ref.capture_attempts, 4u);

  // One round is not enough at 40 queries: the run ends partial.
  auto cfg = faulted_adaptive(40);
  cfg.remeasure.max_rounds = 1;
  expect_fleet_matches_pipeline(cfg, "b", ref);
  EXPECT_TRUE(ref.partial);
  EXPECT_EQ(ref.flagged_components.size(), 4u);
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// The rig stays down through a re-measurement round's whole capture
// budget. Without checkpointing or keep_archive, a failed run deletes
// its archive in both modes.
TEST(Fleet, FailedRunCleansUpLikePipeline) {
  auto cfg = base_pipeline("");
  cfg.attack.num_traces = 40;
  cfg.faults.capture_fail_rate = 0.6;
  cfg.faults.seed = 1;
  cfg.remeasure.max_capture_attempts = 2;
  cfg.quality.enabled = true;
  cfg.adaptive = true;
  const std::string why = "capture round 1: rig down after 2 attempts";

  TempFile ref_tmp("fleet_failed_ref.fdtrace");
  auto ref_cfg = cfg;
  ref_cfg.archive_path = ref_tmp.path;
  const auto ref = attack::run_recovery_pipeline(fleet_victim(), ref_cfg);
  ASSERT_FALSE(ref.ok);
  EXPECT_NE(ref.error.find(why), std::string::npos) << ref.error;
  EXPECT_FALSE(file_exists(ref_tmp.path));

  TempFile tmp("fleet_failed.fdtrace");
  auto fc = base_fleet(tmp.path, 2);
  fc.pipeline = cfg;
  fc.pipeline.archive_path = tmp.path;
  const auto res = fleet::run_fleet(fc);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find(why), std::string::npos) << res.error;
  EXPECT_FALSE(file_exists(tmp.path));
}

TEST(Fleet, UnspawnableWorkerBinaryFailsCleanly) {
  TempFile tmp("fleet_nobin.fdtrace");
  auto fc = base_fleet(tmp.path, 1);
  fc.worker_binary = "/nonexistent/fd-attack";
  fc.max_task_attempts = 2;
  const auto res = fleet::run_fleet(fc);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(Fleet, TelemetryIsUnifiedAndWorkerTagged) {
  TempFile tmp("fleet_telem.fdtrace");
  TempFile telem("fleet_telem.jsonl");
  auto fc = base_fleet(tmp.path, 2);
  fc.telemetry_path = telem.path;
  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;

  std::ifstream in(telem.path);
  std::string line;
  std::size_t lines = 0;
  std::size_t tagged = 0;
  std::size_t spawns = 0;
  while (std::getline(in, line)) {
    ++lines;
    obs::jsonl::Object obj;
    ASSERT_TRUE(obs::jsonl::parse_object(line, obj)) << "unparseable: " << line;
    if (obj.find("worker") != nullptr) ++tagged;
    if (obj.str("ev") == "fleet.worker.spawn") ++spawns;
  }
  EXPECT_EQ(lines, res.telemetry_lines);
  EXPECT_EQ(spawns, res.workers_spawned);
  // Coordinator fleet.* lines always flow; worker-forwarded lines (the
  // ones tagged by id) require an instrumented build.
  EXPECT_GT(lines, 0u);
  if (FD_OBS_ENABLED) {
    EXPECT_GT(tagged, 0u);
  }
}

#endif  // FD_ATTACK_BIN

// --- SIGTERM / interrupt contract ------------------------------------------

TEST(PipelineInterrupt, StopsAtBatchBoundaryAndResumesBitIdentically) {
  const auto victim = fleet_victim();

  TempFile ref_tmp("fleet_int_ref.fdtrace");
  const auto ref = attack::run_recovery_pipeline(victim, base_pipeline(ref_tmp.path));
  ASSERT_TRUE(ref.ok) << ref.error;

  TempFile tmp("fleet_int.fdtrace");
  auto cfg = base_pipeline(tmp.path);
  cfg.checkpoint = true;
  volatile std::sig_atomic_t flag = 1;  // "signal" already delivered
  cfg.interrupt_flag = &flag;
  const auto stopped = attack::run_recovery_pipeline(victim, cfg);
  EXPECT_FALSE(stopped.ok);
  EXPECT_TRUE(stopped.interrupted);
  // The final checkpoint and the archive survive for the resume run.
  EXPECT_FALSE(read_file(stopped.checkpoint_path).empty());
  EXPECT_FALSE(read_file(tmp.path).empty());

  cfg.interrupt_flag = nullptr;
  cfg.resume = true;
  const auto resumed = attack::run_recovery_pipeline(victim, cfg);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.recovery.recovered_f, ref.recovery.recovered_f);
  EXPECT_EQ(resumed.recovery.components_correct, ref.recovery.components_correct);
  EXPECT_TRUE(resumed.recovery.forgery_verified);
}

#ifdef FD_ATTACK_BIN

// Process-level kill-then-resume: SIGTERM a checkpointing fd-attack,
// then finish the run with --resume. The signal races the (fast) run,
// so both outcomes are legal: interrupted (exit 130) then resumed, or
// already finished. Either way the final result must match.
//
// The signal CANNOT race handler installation: the child blocks
// SIGTERM before exec (the mask survives exec), and fd-attack unblocks
// it only after its handlers are installed -- a SIGTERM sent into that
// window is held pending and delivered to the handler, never to the
// default disposition. That closes the race this test used to skip on.
TEST(PipelineInterrupt, SigtermKillThenResumeProcessLevel) {
  const std::string bin = FD_ATTACK_BIN;
  TempFile tmp("fleet_sigterm.fdtrace");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
      ::close(null_fd);
    }
    sigset_t block;
    sigemptyset(&block);
    sigaddset(&block, SIGTERM);
    ::sigprocmask(SIG_BLOCK, &block, nullptr);
    ::execl(bin.c_str(), bin.c_str(), "recover", "--logn", "3", "--traces", "240", "--seed",
            "0xFD06", "--archive", tmp.path.c_str(), "--checkpoint", nullptr);
    _exit(127);
  }
  ::usleep(30 * 1000);
  ::kill(pid, SIGTERM);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM)
      << "SIGTERM killed fd-attack under the default disposition; the "
         "block-before-exec / unblock-after-install contract is broken";
  ASSERT_TRUE(WIFEXITED(status)) << "fd-attack did not exit cleanly on SIGTERM";
  const int code = WEXITSTATUS(status);
  ASSERT_TRUE(code == 130 || code == 0 || code == 1) << "exit " << code;

  if (code == 130) {
    // Interrupted: checkpoint + archive must be there, and --resume
    // must complete the recovery.
    EXPECT_FALSE(read_file(tmp.path + ".fdckpt").empty());
    const std::string cmd = bin + " recover --logn 3 --traces 240 --seed 0xFD06 --archive " +
                            tmp.path + " --checkpoint --resume --json 2>/dev/null";
    std::FILE* out = ::popen(cmd.c_str(), "r");
    ASSERT_NE(out, nullptr);
    std::string json;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, out)) > 0) json.append(buf, n);
    const int rc = ::pclose(out);
    EXPECT_EQ(WEXITSTATUS(rc), 0) << json;
    EXPECT_NE(json.find("\"resumed\":true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"f_exact\":true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"forgery_verified\":true"), std::string::npos) << json;
  }
}

// `recover --fleet N --json` prints the single-process writer's fields
// (gate counts, capture attempts, flags, NTRU and stage timings) and
// then the fleet mechanics.
TEST(FleetCli, JsonCarriesPipelineFields) {
  const std::string cmd = std::string(FD_ATTACK_BIN) +
                          " recover --logn 3 --traces 200 --fleet 2 --json 2>/dev/null";
  std::FILE* out = ::popen(cmd.c_str(), "r");
  ASSERT_NE(out, nullptr);
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, out)) > 0) json.append(buf, n);
  const int rc = ::pclose(out);
  ASSERT_TRUE(WIFEXITED(rc)) << json;
  EXPECT_TRUE(WEXITSTATUS(rc) == 0 || WEXITSTATUS(rc) == 1) << json;
  for (const char* key :
       {"n", "traces", "backend", "records", "components_correct", "f_exact", "capture_attempts",
        "flagged_components", "quality_screened", "quality_accepted",
        "quality_rejected_saturated", "quality_rejected_energy", "quality_rejected_alignment",
        "quality_realigned", "remeasure_rounds", "partial", "ntru_solved", "forgery_verified",
        "stage_capture_ms", "stage_attack_ms", "stage_assemble_ms", "workers",
        "workers_spawned", "worker_deaths", "reassignments", "attack_shards"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos) << key << "\n"
                                                                              << json;
  }
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos) << json;
}

#endif  // FD_ATTACK_BIN

}  // namespace
}  // namespace fd
