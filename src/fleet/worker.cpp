#include "fleet/worker.h"

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "attack/checkpoint.h"
#include "attack/parallel_attack.h"
#include "common/rng.h"
#include "distinguisher/component_scorer.h"
#include "exec/seed_split.h"
#include "falcon/falcon.h"
#include "fleet/protocol.h"
#include "fleet/transport.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd::fleet {

namespace {

// Serializes every frame write onto one transport: the task loop, the
// heartbeat thread, and the telemetry sink all write here, and a frame
// must hit the wire atomically (the decoder has no resync marker). The
// transport is rebindable under the same mutex so a serve-mode worker
// survives reconnects without tearing down the heartbeat or the sink.
class FrameWriter {
 public:
  explicit FrameWriter(Transport* t) : transport_(t) {}

  void set_transport(Transport* t) {
    std::lock_guard<std::mutex> lock(mu_);
    transport_ = t;
  }

  bool send(FrameType type, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderSize + payload.size());
    encode_frame(frame, type, payload);
    std::lock_guard<std::mutex> lock(mu_);
    if (transport_ == nullptr) return false;  // between connections
    return transport_->write_all(frame);
  }

  bool send(FrameType type) { return send(type, {}); }

  bool send_string(FrameType type, std::string_view s) {
    return send(type, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

 private:
  Transport* transport_;
  std::mutex mu_;
};

// Forwards every locally emitted obs event to the coordinator as a
// kTelemetry frame (one JSONL line per frame). The coordinator tags the
// line with this worker's id and appends it to the unified stream.
class ForwardingSink final : public obs::TelemetrySink {
 public:
  explicit ForwardingSink(FrameWriter& writer) : writer_(writer) {}
  void record(const obs::Event& ev) override {
    writer_.send_string(FrameType::kTelemetry, obs::to_jsonl(ev));
  }

 private:
  FrameWriter& writer_;
};

// Liveness ticks on their own thread so a long CPA batch never reads
// as a dead worker. `mute` is the hang_ms test hook: a muted heartbeat
// is exactly what a wedged worker looks like from the coordinator.
class Heartbeat {
 public:
  Heartbeat(FrameWriter& writer, std::size_t interval_ms)
      : writer_(writer), interval_ms_(interval_ms == 0 ? 50 : interval_ms) {
    thread_ = std::thread([this] { run(); });
  }
  ~Heartbeat() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  void mute(bool on) { mute_.store(on, std::memory_order_relaxed); }

 private:
  void run() {
    obs::set_thread_name("fd-heartbeat");
    while (!stop_.load(std::memory_order_relaxed)) {
      if (!mute_.load(std::memory_order_relaxed)) writer_.send(FrameType::kHeartbeat);
      // Sleep in short slices so destruction never waits a full interval.
      std::size_t slept = 0;
      while (slept < interval_ms_ && !stop_.load(std::memory_order_relaxed)) {
        const std::size_t slice = std::min<std::size_t>(10, interval_ms_ - slept);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        slept += slice;
      }
    }
  }

  FrameWriter& writer_;
  std::size_t interval_ms_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> mute_{false};
  std::thread thread_;
};

// Per-session worker state, built once the kConfig frame arrives.
struct Session {
  SessionConfig cfg;
  falcon::KeyPair victim;
  std::unique_ptr<exec::ThreadPool> pool;
};

// State that must OUTLIVE a connection: in serve mode the coordinator
// may drop and redial any number of times, and the contract is that a
// task executes exactly once per dispatch decision -- completed results
// are cached and re-delivered, never recomputed (recomputation would
// double scan totals and quality counts, breaking the byte-identity
// pin). Pipe-mode workers use the same structure with persistence off.
struct WorkerContext {
  bool persistent = false;  // serve mode
  std::string work_dir;     // staging dir ("" = shared filesystem)

  std::optional<Session> session;
  std::unique_ptr<Heartbeat> heartbeat;
  std::unique_ptr<ForwardingSink> telemetry;
  std::unique_ptr<obs::ResourceSampler> sampler;

  // Completed tasks by id: the result to re-deliver, and for staged
  // captures the local file to re-stream from.
  std::map<std::uint32_t, TaskResult> done;
  std::map<std::uint32_t, std::string> done_files;

  // Inbound archive push (coordinator -> worker).
  struct Inbound {
    bool active = false;
    FileStart start;
    std::FILE* f = nullptr;
    std::uint32_t next = 0;
    std::uint32_t crc = 0;  // chained chunk CRCs = whole-file crc32
    std::string tmp;
    std::string final_path;
  } inbound;
  std::uint64_t archive_gen = 0;  // generation of archive_local, 0 = none
  std::string archive_local;
};

// Serve-mode path remap: the coordinator's paths mean nothing on this
// filesystem, so staged tasks resolve everything by basename under the
// work dir.
std::string local_path(const WorkerContext& ctx, const std::string& path) {
  if (ctx.work_dir.empty() || path.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  return ctx.work_dir + "/" +
         (slash == std::string::npos ? path : path.substr(slash + 1));
}

void close_inbound(WorkerContext& ctx) {
  if (ctx.inbound.f != nullptr) std::fclose(ctx.inbound.f);
  if (!ctx.inbound.tmp.empty()) std::remove(ctx.inbound.tmp.c_str());
  ctx.inbound = {};
}

TaskResult run_capture_task(const Session& s, const TaskSpec& spec,
                            const std::string& out_path) {
  // Graft this task under the coordinator's JobGraph stage span: the
  // propagated parent becomes the ambient context, the task span its
  // child, and every span the campaign opens below nests inside.
  const obs::ScopedSpanParent reparent(
      obs::SpanContext{s.cfg.trace_id, spec.parent_span, 0},
      static_cast<std::uint64_t>(spec.task_id) << 32);
  obs::Span task_span("fleet.task.capture");
  task_span.note("task", spec.task_id);
  TaskResult res;
  res.task_id = spec.task_id;
  res.kind = TaskKind::kCapture;
  res.span = task_span.context().span_id;
  sca::CampaignConfig camp;
  camp.num_traces = static_cast<std::size_t>(spec.capture_traces);
  camp.device = s.cfg.attack.device;
  camp.seed = spec.capture_seed;
  camp.row = 0;
  camp.faults = s.cfg.faults;
  // Chunk damage keys on the MERGED archive's chunk ordinals; the
  // coordinator applies it after the merge, exactly like
  // run_campaign_sharded defers it past the shard files.
  camp.faults.chunk_corrupt_rate = 0.0;
  camp.fault_query_offset = static_cast<std::size_t>(spec.fault_query_offset);
  const auto campaign = sca::run_campaign_to_archive(s.victim.sk, camp, out_path);
  if (!campaign.ok) {
    res.error = "capture: " + campaign.error;
    return res;
  }
  res.queries = campaign.queries;
  res.records = campaign.records;
  res.ok = true;
  return res;
}

TaskResult run_attack_task(const Session& s, const TaskSpec& spec, FrameWriter& writer,
                           Heartbeat& heartbeat, const std::string& archive_path,
                           const std::string& checkpoint_path) {
  const obs::ScopedSpanParent reparent(
      obs::SpanContext{s.cfg.trace_id, spec.parent_span, 0},
      static_cast<std::uint64_t>(spec.task_id) << 32);
  obs::Span task_span("fleet.task.attack");
  task_span.note("task", spec.task_id);
  TaskResult res;
  res.task_id = spec.task_id;
  res.kind = TaskKind::kAttack;
  res.span = task_span.context().span_id;
  if (spec.backend != static_cast<std::uint8_t>(s.cfg.attack.backend.backend)) {
    res.error = "attack: task backend tag does not match session backend";
    return res;
  }
  if (spec.hang_ms > 0) {
    // Wedge simulation: stop announcing liveness and stall. The
    // coordinator's heartbeat timeout must fire and reassign the shard;
    // when it SIGKILLs us mid-sleep we never wake up.
    heartbeat.mute(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.hang_ms));
    heartbeat.mute(false);
  }

  const std::size_t n = s.victim.sk.params.n;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    attack::ComponentAttackConfig cac = attack::component_attack_config(
        s.victim.sk, s.cfg.attack, /*row=*/0, ci.slot, ci.imag);
    cac.scan_pool = s.pool.get();  // nested parallel_map runs inline
    return cac;
  };

  // The shard's own checkpoint, bound to (session, task) so a worker
  // restarted on the SAME task resumes it and any other task refuses
  // the file. Components finished by a dead predecessor are skipped --
  // their results come out of the checkpoint bit-identical.
  const std::uint64_t ckpt_hash = s.cfg.session_hash ^ exec::mix64(spec.task_id + 1);
  attack::CheckpointState st;
  st.reset(n);
  st.config_hash = ckpt_hash;
  if (!checkpoint_path.empty()) {
    attack::CheckpointState loaded;
    if (attack::load_checkpoint(checkpoint_path, loaded) &&
        loaded.config_hash == ckpt_hash && loaded.done.size() == n) {
      st = std::move(loaded);
    }
  }

  std::vector<attack::ComponentResult> results(n);
  std::vector<std::size_t> accepted(n, 0);
  std::vector<std::size_t> todo;
  std::uint64_t done_before = 0;
  for (const std::uint32_t comp : spec.components) {
    if (comp >= n) {
      res.error = "attack: component id out of range";
      return res;
    }
    if (st.done[comp] != 0) {
      results[comp] = st.results[comp];
      accepted[comp] = static_cast<std::size_t>(st.accepted_traces[comp]);
      ++done_before;
    } else {
      todo.push_back(comp);
    }
  }

  auto& scans = obs::MetricsRegistry::global().counter("attack.archive.scans");
  const std::uint64_t scans_before = scans.value();
  const std::size_t batch_size =
      s.cfg.checkpoint_every == 0 ? std::max<std::size_t>(1, todo.size())
                                  : s.cfg.checkpoint_every;
  std::uint64_t completed_this_run = 0;
  for (std::size_t b = 0; b < todo.size(); b += batch_size) {
    const std::size_t end = std::min(todo.size(), b + batch_size);
    const std::span<const std::size_t> batch(todo.data() + b, end - b);
    attack::QualityReport q;
    std::string err;
    if (!attack::attack_components_gated(archive_path, s.cfg.quality, config_for,
                                         s.pool.get(), batch, results, accepted, &q, &err)) {
      res.error = "attack: " + err;
      return res;
    }
    res.quality.add(q);
    for (const std::size_t idx : batch) {
      st.done[idx] = 1;
      st.results[idx] = results[idx];
      st.accepted_traces[idx] = accepted[idx];
    }
    completed_this_run += batch.size();
    if (!checkpoint_path.empty()) {
      std::string perr;
      if (!attack::save_checkpoint(checkpoint_path, st, &perr)) {
        res.error = perr;
        return res;
      }
    }
    Progress p;
    p.task_id = spec.task_id;
    p.completed = done_before + completed_this_run;
    p.total = spec.components.size();
    p.span = task_span.context().span_id;
    std::vector<std::uint8_t> payload;
    encode_progress(payload, p);
    writer.send(FrameType::kProgress, payload);
    if (spec.kill_after > 0 && completed_this_run >= spec.kill_after) {
      // Crash simulation with the persist-then-die ordering the
      // reassignment test relies on: the checkpoint above has this
      // batch, the kResult frame never goes out.
      std::raise(SIGKILL);
    }
  }

  res.archive_scans = scans.value() - scans_before;
  res.outcomes.reserve(spec.components.size());
  for (const std::uint32_t comp : spec.components) {
    ComponentOutcome o;
    o.component = comp;
    o.result = results[comp];
    o.accepted = accepted[comp];
    res.outcomes.push_back(std::move(o));
  }
  // The shard is done and reported; its checkpoint must not shadow a
  // later experiment reusing the path.
  if (!checkpoint_path.empty()) std::remove(checkpoint_path.c_str());
  res.ok = true;
  return res;
}

// Streams a finished capture shard back to the coordinator, resuming at
// `first_chunk` (the chunks the coordinator confirmed it already holds
// from a connection that died mid-transfer). Chunks carry individual
// CRCs; the End frame the whole-file CRC. A send failure just stops the
// stream -- the loop discovers the dead connection at its next read.
bool send_staged_file(FrameWriter& writer, const std::string& path, std::uint32_t file_id,
                      std::uint32_t first_chunk, std::size_t chunk_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<std::uint8_t> buf(chunk_bytes);
  // Pre-pass for the whole-file CRC (resume may skip leading chunks, so
  // it cannot be accumulated inline).
  std::uint32_t file_crc = 0;
  std::uint64_t total = 0;
  for (;;) {
    const std::size_t k = std::fread(buf.data(), 1, buf.size(), f);
    if (k == 0) break;
    file_crc = tracestore::crc32({buf.data(), k}, file_crc);
    total += k;
  }
  const auto num_chunks =
      static_cast<std::uint32_t>((total + chunk_bytes - 1) / chunk_bytes);
  if (first_chunk > num_chunks) {
    std::fclose(f);
    return false;
  }
  FileStart fs;
  fs.file_id = file_id;
  fs.role = FileRole::kStageOut;
  fs.total_bytes = total;
  fs.chunk_bytes = static_cast<std::uint32_t>(chunk_bytes);
  fs.num_chunks = num_chunks;
  fs.first_chunk = first_chunk;
  const std::size_t slash = path.find_last_of('/');
  fs.name = slash == std::string::npos ? path : path.substr(slash + 1);
  std::vector<std::uint8_t> payload;
  encode_file_start(payload, fs);
  bool ok = writer.send(FrameType::kFileStart, payload);
  std::fseek(f, static_cast<long>(static_cast<std::uint64_t>(first_chunk) * chunk_bytes),
             SEEK_SET);
  for (std::uint32_t idx = first_chunk; ok && idx < num_chunks; ++idx) {
    const std::size_t k = std::fread(buf.data(), 1, buf.size(), f);
    if (k == 0) {
      ok = false;
      break;
    }
    FileChunk ch;
    ch.file_id = file_id;
    ch.index = idx;
    ch.data.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(k));
    ch.crc = tracestore::crc32(ch.data);
    payload.clear();
    encode_file_chunk(payload, ch);
    ok = writer.send(FrameType::kFileChunk, payload);
  }
  std::fclose(f);
  if (!ok) return false;
  FileEnd fe;
  fe.file_id = file_id;
  fe.num_chunks = num_chunks;
  fe.file_crc = file_crc;
  payload.clear();
  encode_file_end(payload, fe);
  return writer.send(FrameType::kFileEnd, payload);
}

enum class LoopExit {
  kShutdownReq,  // coordinator asked us to exit
  kEof,          // peer went away cleanly
  kFatal,        // corrupt stream / hard error on this connection
};

// Inbound archive push handlers (serve mode). Any integrity violation
// is fatal FOR THE CONNECTION: the coordinator sees the teardown and
// re-pushes after reconnecting.
bool handle_file_start(WorkerContext& ctx, const Frame& frame, FrameWriter& writer) {
  FileStart fs;
  if (!decode_file_start(frame.payload, fs) || fs.role != FileRole::kArchivePush ||
      fs.first_chunk != 0) {
    writer.send_string(FrameType::kError, "worker: bad file-start");
    return false;
  }
  close_inbound(ctx);
  ctx.inbound.start = fs;
  ctx.inbound.final_path =
      ctx.work_dir + "/archive.g" + std::to_string(fs.file_id) + ".fdtrace";
  ctx.inbound.tmp = ctx.inbound.final_path + ".part";
  ctx.inbound.f = std::fopen(ctx.inbound.tmp.c_str(), "wb");
  if (ctx.inbound.f == nullptr) {
    writer.send_string(FrameType::kError, "worker: cannot open staging file");
    return false;
  }
  ctx.inbound.active = true;
  ctx.inbound.next = 0;
  ctx.inbound.crc = 0;
  return true;
}

bool handle_file_chunk(WorkerContext& ctx, const Frame& frame, FrameWriter& writer) {
  FileChunk ch;
  if (!decode_file_chunk(frame.payload, ch) || !ctx.inbound.active ||
      ch.file_id != ctx.inbound.start.file_id || ch.index != ctx.inbound.next ||
      tracestore::crc32(ch.data) != ch.crc) {
    writer.send_string(FrameType::kError, "worker: file chunk integrity failure");
    return false;
  }
  if (!ch.data.empty() &&
      std::fwrite(ch.data.data(), 1, ch.data.size(), ctx.inbound.f) != ch.data.size()) {
    writer.send_string(FrameType::kError, "worker: staging write failed");
    return false;
  }
  ctx.inbound.crc = tracestore::crc32(ch.data, ctx.inbound.crc);
  ++ctx.inbound.next;
  return true;
}

bool handle_file_end(WorkerContext& ctx, const Frame& frame, FrameWriter& writer) {
  FileEnd fe;
  if (!decode_file_end(frame.payload, fe) || !ctx.inbound.active ||
      fe.file_id != ctx.inbound.start.file_id || fe.num_chunks != ctx.inbound.next ||
      fe.file_crc != ctx.inbound.crc) {
    writer.send_string(FrameType::kError, "worker: file transfer integrity failure");
    return false;
  }
  std::fclose(ctx.inbound.f);
  ctx.inbound.f = nullptr;
  if (std::rename(ctx.inbound.tmp.c_str(), ctx.inbound.final_path.c_str()) != 0) {
    writer.send_string(FrameType::kError, "worker: staging rename failed");
    return false;
  }
  // Drop the previous generation; tasks only ever reference the latest.
  if (!ctx.archive_local.empty() && ctx.archive_local != ctx.inbound.final_path) {
    std::remove(ctx.archive_local.c_str());
  }
  ctx.archive_local = ctx.inbound.final_path;
  ctx.archive_gen = ctx.inbound.start.file_id;
  ctx.inbound = {};
  return true;
}

void handle_config(WorkerContext& ctx, const SessionConfig& cfg, FrameWriter& writer) {
  if (ctx.session && ctx.session->cfg.session_hash == cfg.session_hash) {
    return;  // reconnect of the same experiment: keep everything
  }
  // A NEW experiment invalidates everything the old one cached.
  ctx.done.clear();
  ctx.done_files.clear();
  close_inbound(ctx);
  ctx.archive_gen = 0;
  ctx.archive_local.clear();
  // Trace identity + telemetry come up BEFORE the session is built:
  // pool threads announce their names through the sink as they start,
  // and every span from here on carries the campaign's propagated
  // trace id.
  obs::set_trace_root(cfg.trace_id);
  if (!ctx.telemetry) {
    ctx.telemetry = std::make_unique<ForwardingSink>(writer);
    obs::set_sink(ctx.telemetry.get());
    obs::set_thread_name("fd-worker");
  }
  ctx.sampler.reset();
  if (cfg.profile_interval_ms > 0) {
    ctx.sampler = std::make_unique<obs::ResourceSampler>(cfg.profile_interval_ms);
  }
  ctx.heartbeat.reset();
  ctx.heartbeat = std::make_unique<Heartbeat>(writer, cfg.heartbeat_interval_ms);
  Session s;
  s.cfg = cfg;
  ChaCha20Prng rng(cfg.victim_seed);
  s.victim = falcon::keygen(cfg.logn, rng);
  // Profiled backends: rebuild the scorer from the selection that
  // crossed the wire. make_component_scorer is deterministic in
  // (selection, device, logn), so every worker and the coordinator
  // hold identical profiles without any profile bytes in the protocol.
  s.cfg.attack.scorer = distinguisher::make_component_scorer(
      s.cfg.attack.backend, s.cfg.attack.device, s.cfg.logn);
  if (cfg.attack.threads > 1) {
    s.pool = std::make_unique<exec::ThreadPool>(cfg.attack.threads);
  }
  ctx.session.emplace(std::move(s));
}

// Dispatches one kTask frame: cache lookup, path remapping, execution,
// staging, result delivery. Returns false only on malformed input (the
// connection is then torn down).
bool handle_task(WorkerContext& ctx, const Frame& frame, FrameWriter& writer) {
  if (!ctx.session) {
    writer.send_string(FrameType::kError, "worker: task before config");
    return false;
  }
  TaskSpec spec;
  if (!decode_task(frame.payload, spec)) {
    writer.send_string(FrameType::kError, "worker: bad task spec");
    return false;
  }
  const Session& s = *ctx.session;
  const std::size_t chunk_bytes = s.cfg.stage_chunk_bytes;

  const auto deliver = [&](const TaskResult& res) {
    // Staged captures ship the shard file BEFORE the result frame: a
    // kResult for a staged task promises the coordinator already holds
    // every chunk.
    if (spec.stage && spec.kind == TaskKind::kCapture && res.ok) {
      const auto it = ctx.done_files.find(spec.task_id);
      if (it != ctx.done_files.end()) {
        if (!send_staged_file(writer, it->second, spec.task_id, spec.stage_have_chunks,
                              chunk_bytes)) {
          return;  // connection died mid-stream; reconnect will resume
        }
      }
    }
    std::vector<std::uint8_t> payload;
    encode_result(payload, res);
    writer.send(FrameType::kResult, payload);
  };

  // Exactly-once execution: a task this context already finished is
  // answered from the cache, not recomputed -- re-running it would
  // inflate scan totals and quality counts relative to a single-process
  // run, which the byte-identity pin forbids.
  if (ctx.persistent) {
    const auto it = ctx.done.find(spec.task_id);
    if (it != ctx.done.end()) {
      deliver(it->second);
      return true;
    }
  }

  TaskResult res;
  if (spec.kind == TaskKind::kCapture) {
    const std::string out_path = spec.stage ? local_path(ctx, spec.out_path) : spec.out_path;
    res = run_capture_task(s, spec, out_path);
    if (res.ok && spec.stage) ctx.done_files[spec.task_id] = out_path;
  } else {
    std::string archive = spec.archive_path;
    if (spec.stage) {
      if (ctx.archive_gen != spec.archive_generation || ctx.archive_local.empty()) {
        res.task_id = spec.task_id;
        res.kind = TaskKind::kAttack;
        res.error = "attack: staged archive generation " +
                    std::to_string(spec.archive_generation) + " not present";
        deliver(res);
        return true;
      }
      archive = ctx.archive_local;
    }
    const std::string ckpt =
        spec.stage ? local_path(ctx, spec.checkpoint_path) : spec.checkpoint_path;
    res = run_attack_task(s, spec, writer, *ctx.heartbeat, archive, ckpt);
  }
  if (ctx.persistent && res.ok) ctx.done[spec.task_id] = res;
  deliver(res);
  return true;
}

// The shared protocol loop; `t` must match what `writer` is bound to.
LoopExit run_worker_loop(Transport& t, FrameWriter& writer, WorkerContext& ctx,
                         FrameDecoder& decoder) {
  std::uint8_t buf[64 << 10];
  for (;;) {
    Frame frame;
    while (!decoder.next(frame)) {
      if (decoder.corrupt()) {
        writer.send_string(FrameType::kError, "worker: " + decoder.error());
        return LoopExit::kFatal;
      }
      const std::ptrdiff_t n = t.read_some(buf, sizeof buf);
      if (n == Transport::kWouldBlock) {
        ::pollfd p{t.poll_fd(), POLLIN, 0};
        (void)::poll(&p, 1, -1);
        continue;
      }
      if (n == Transport::kError) return LoopExit::kFatal;
      if (n == 0) return LoopExit::kEof;  // peer closed: orderly exit
      decoder.feed({buf, static_cast<std::size_t>(n)});
    }

    switch (frame.type) {
      case FrameType::kConfig: {
        SessionConfig cfg;
        if (!decode_session(frame.payload, cfg)) {
          writer.send_string(FrameType::kError, "worker: bad session config");
          return LoopExit::kFatal;
        }
        handle_config(ctx, cfg, writer);
        break;
      }
      case FrameType::kTask:
        if (!handle_task(ctx, frame, writer)) return LoopExit::kFatal;
        break;
      case FrameType::kFileStart:
        if (!handle_file_start(ctx, frame, writer)) return LoopExit::kFatal;
        break;
      case FrameType::kFileChunk:
        if (!handle_file_chunk(ctx, frame, writer)) return LoopExit::kFatal;
        break;
      case FrameType::kFileEnd:
        if (!handle_file_end(ctx, frame, writer)) return LoopExit::kFatal;
        break;
      case FrameType::kAuth:
        break;  // already validated by the serve accept path; pipes ignore it
      case FrameType::kShutdown:
        return LoopExit::kShutdownReq;
      default:
        // Unknown-but-well-framed types are skipped: a newer
        // coordinator may speak frames this worker predates.
        break;
    }
  }
}

void send_hello(FrameWriter& writer) {
  Hello hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  std::vector<std::uint8_t> payload;
  encode_hello(payload, hello);
  writer.send(FrameType::kHello, payload);
}

}  // namespace

int run_worker(int in_fd, int out_fd) {
  PipeTransport transport(in_fd, out_fd);
  FrameWriter writer(&transport);
  WorkerContext ctx;
  FrameDecoder decoder;
  send_hello(writer);

  const LoopExit exit = run_worker_loop(transport, writer, ctx, decoder);
  // Uninstall the forwarding sink before the writer dies -- a dangling
  // global sink in a still-winding-down process is a use-after-free
  // waiting to happen.
  ctx.sampler.reset();
  ctx.heartbeat.reset();
  obs::set_sink(nullptr);
  return exit == LoopExit::kFatal ? 1 : 0;
}

int run_serve(const ServeConfig& cfg) {
  // Writes to a connection the coordinator already abandoned must be
  // errors, not process death.
  std::signal(SIGPIPE, SIG_IGN);

  ServeConfig scfg = cfg;
  if (scfg.work_dir.empty()) {
    scfg.work_dir = "fd-serve." + std::to_string(::getpid());
  }
  if (::mkdir(scfg.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "fd-attack --serve: cannot create work dir %s\n",
                 scfg.work_dir.c_str());
    return 1;
  }

  TcpListener listener;
  std::string err;
  if (!listener.listen_on(scfg.host, scfg.port, err)) {
    std::fprintf(stderr, "fd-attack --serve: %s\n", err.c_str());
    return 1;
  }
  if (!scfg.port_file.empty()) {
    // Publish via rename so a polling reader never sees a half-written
    // file.
    const std::string tmp = scfg.port_file + ".tmp";
    if (std::FILE* pf = std::fopen(tmp.c_str(), "w")) {
      std::fprintf(pf, "%u\n", static_cast<unsigned>(listener.bound_port()));
      std::fclose(pf);
      (void)std::rename(tmp.c_str(), scfg.port_file.c_str());
    }
  }
  std::fprintf(stderr, "fd-attack --serve: listening on %s:%u\n", scfg.host.c_str(),
               static_cast<unsigned>(listener.bound_port()));

  FrameWriter writer(nullptr);
  WorkerContext ctx;
  ctx.persistent = true;
  ctx.work_dir = scfg.work_dir;

  int code = 0;
  for (;;) {
    const int sock = listener.accept_one();
    if (sock < 0) {
      code = 1;
      break;
    }
    TcpTransport transport(sock);
    FrameDecoder decoder;

    // The connection's first frame must authenticate within a small
    // deadline; anything else (port scanner, stale coordinator, token
    // mismatch) is dropped and we go back to accepting.
    bool authed = false;
    {
      std::uint8_t buf[4096];
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5000);
      Frame frame;
      while (std::chrono::steady_clock::now() < deadline) {
        if (decoder.next(frame)) {
          AuthFrame auth;
          authed = frame.type == FrameType::kAuth && decode_auth(frame.payload, auth) &&
                   auth.token == scfg.token;
          break;
        }
        if (decoder.corrupt()) break;
        const std::ptrdiff_t n = transport.read_some(buf, sizeof buf);
        if (n == Transport::kWouldBlock) {
          ::pollfd p{transport.poll_fd(), POLLIN, 0};
          (void)::poll(&p, 1, 100);
          continue;
        }
        if (n <= 0) break;
        decoder.feed({buf, static_cast<std::size_t>(n)});
      }
    }
    if (!authed) {
      std::vector<std::uint8_t> frame;
      encode_frame(frame, FrameType::kError,
                   {reinterpret_cast<const std::uint8_t*>("worker: auth failed"), 19});
      (void)transport.write_all(frame);
      transport.close_transport();
      continue;
    }

    writer.set_transport(&transport);
    send_hello(writer);
    const LoopExit exit = run_worker_loop(transport, writer, ctx, decoder);
    writer.set_transport(nullptr);
    transport.close_transport();
    if (exit == LoopExit::kShutdownReq) break;
    // kEof / kFatal: the coordinator (or the network) dropped us; keep
    // all context and wait for a reconnect.
  }

  ctx.sampler.reset();
  ctx.heartbeat.reset();
  obs::set_sink(nullptr);
  close_inbound(ctx);
  return code;
}

}  // namespace fd::fleet
