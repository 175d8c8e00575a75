#include "fleet/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "exec/retry.h"
#include "exec/seed_split.h"
#include "falcon/falcon.h"
#include "fleet/net_faults.h"
#include "fleet/protocol.h"
#include "fleet/transport.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd::fleet {

namespace {

using Clock = std::chrono::steady_clock;

// Binds worker checkpoints to this experiment: a FNV-1a/mix64 digest of
// the encoded SessionConfig (every knob that changes captured bytes or
// per-component decisions is in there). Reassigned shards accept a dead
// predecessor's checkpoint iff it carries the same digest.
std::uint64_t hash_session(const SessionConfig& cfg) {
  std::vector<std::uint8_t> bytes;
  encode_session(bytes, cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return exec::mix64(h);
}

// Domain separation between the session hash (checkpoint binding) and
// the trace id derived from it ("TRAC" in ASCII).
constexpr std::uint64_t kTraceSalt = 0x54524143;

double steady_us() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch()).count();
}

struct Task {
  TaskSpec spec;
  std::size_t attempts = 0;  // dispatches so far
  enum class State : std::uint8_t { kPending, kRunning, kDone, kFailed } state = State::kPending;
  TaskResult result;
  Clock::time_point eligible_at{};  // backoff gate for retries

  // Stage-out receive state for remote capture shards. Lives on the
  // TASK, not the connection: validated chunks already on disk survive
  // both a reconnect and a reassignment to a different worker (the
  // bytes are deterministic, so any worker's re-stream continues the
  // same file), and the (re)dispatch tells the worker to resume at
  // stage_chunks_ok.
  std::uint32_t stage_chunks_ok = 0;     // complete chunks persisted
  std::uint32_t stage_chunks_total = 0;  // from FileStart
  std::uint32_t stage_crc = 0;           // chained crc32 of chunks so far
  std::FILE* stage_f = nullptr;          // open ".stage" tmp, if any
  bool staged = false;                   // tmp renamed to out_path
};

struct WorkerProc {
  int id = -1;
  pid_t pid = -1;  // local workers only; -1 for remotes
  std::unique_ptr<Transport> transport;
  FrameDecoder decoder;
  Clock::time_point last_seen{};
  std::ptrdiff_t task = -1;  // index into the current task vector
  bool alive = false;

  // Remote (--serve) workers.
  bool remote = false;
  std::size_t endpoint = 0;       // index into cfg_.remotes
  std::uint32_t conn_count = 0;   // successful dials so far
  std::uint32_t flaps = 0;        // reconnects since the last good frame
  std::uint64_t archive_gen = 0;  // merged-archive generation pushed
};

// The whole orchestration lives in one object so the stage lambdas of
// the JobGraph share workers, telemetry, and merged state.
class Coordinator {
 public:
  Coordinator(const FleetConfig& config, FleetResult& out)
      : cfg_(config),
        out_(out),
        netplan_(config.net_faults),
        endpoint_tasks_(config.remotes.size(), 0),
        endpoint_refused_(config.remotes.size(), false) {}

  ~Coordinator() {
    sampler_.reset();  // its thread records through the sink below
    if (sink_installed_) obs::set_sink(prev_sink_);
    shutdown_workers();
    if (telem_ != nullptr) std::fclose(telem_);
  }

  bool init() {
    ChaCha20Prng rng(cfg_.victim_seed);
    victim_ = falcon::keygen(cfg_.logn, rng);
    n_ = victim_.sk.params.n;

    session_.logn = cfg_.logn;
    session_.victim_seed = cfg_.victim_seed;
    session_.attack = cfg_.pipeline.attack;
    session_.faults = cfg_.pipeline.faults;
    session_.quality = cfg_.pipeline.quality;
    session_.checkpoint_every = cfg_.pipeline.checkpoint_every;
    session_.heartbeat_interval_ms = cfg_.heartbeat_interval_ms;
    session_.profile_interval_ms =
        cfg_.telemetry_path.empty() ? 0 : cfg_.profile_interval_ms;
    session_.stage_chunk_bytes =
        std::clamp<std::size_t>(cfg_.stage_chunk_bytes, 1, kMaxPayload / 2);
    // trace_id is still 0 while hashing, then derived from the hash:
    // the same experiment always produces the same trace tree, and the
    // checkpoint binding is independent of the trace identity.
    session_.session_hash = hash_session(session_);
    session_.trace_id = exec::mix64(session_.session_hash ^ kTraceSalt);
    obs::set_trace_root(session_.trace_id);

    // Bounded retries for task reassignment and remote reconnects, in
    // the exec::RetryPolicy vocabulary the recovery driver's capture
    // retries use too. Jitter seeds derive from the session hash so a
    // replayed run backs off identically.
    task_retry_.max_attempts = std::max<std::size_t>(1, cfg_.max_task_attempts);
    task_retry_.base_ms = cfg_.backoff_base_ms;
    task_retry_.seed = session_.session_hash;
    reconnect_retry_.max_attempts = std::max<std::size_t>(1, cfg_.reconnect_attempts);
    reconnect_retry_.base_ms = cfg_.reconnect_backoff_ms;
    reconnect_retry_.jitter = cfg_.reconnect_jitter;
    reconnect_retry_.seed = session_.session_hash ^ 0x4ECC;

    if (!cfg_.telemetry_path.empty()) {
      telem_ = std::fopen(cfg_.telemetry_path.c_str(), "wb");
      if (telem_ == nullptr) {
        out_.error = "fleet: cannot open telemetry file " + cfg_.telemetry_path;
        return false;
      }
      // Route the coordinator's own obs events (stage spans, thread
      // names, resource samples) into the unified stream, tagged
      // "coord" so no row is untagged.
      coord_sink_ = std::make_unique<CoordSink>(*this);
      prev_sink_ = obs::sink();
      obs::set_sink(coord_sink_.get());
      sink_installed_ = true;
      obs::set_thread_name("fd-coord");
      if (session_.profile_interval_ms > 0) {
        sampler_ = std::make_unique<obs::ResourceSampler>(session_.profile_interval_ms);
      }
    }
    if (cfg_.worker_binary.empty()) {
      out_.error = "fleet: worker_binary not set";
      return false;
    }
    if (cfg_.pipeline.archive_path.empty()) {
      out_.error = "fleet: archive_path not set";
      return false;
    }
    return true;
  }

  const falcon::KeyPair& victim() { return victim_; }

  // --- the spawn stage -----------------------------------------------------

  // Local pipe workers the fleet should hold at strength. With remotes
  // configured, `workers` counts locals only and may be 0 (remote-only
  // fleet); without remotes the historical minimum of one local holds.
  [[nodiscard]] std::size_t local_target() const {
    return cfg_.remotes.empty() ? std::max<std::size_t>(1, cfg_.workers) : cfg_.workers;
  }

  void stage_spawn() {
    for (std::size_t i = 0; i < local_target(); ++i) {
      if (!spawn_worker()) throw std::runtime_error("fleet: cannot spawn worker: " + spawn_error_);
    }
    for (std::size_t e = 0; e < cfg_.remotes.size(); ++e) {
      if (!connect_remote(e)) {
        throw std::runtime_error("fleet: cannot connect remote " + cfg_.remotes[e].host + ":" +
                                 std::to_string(cfg_.remotes[e].port) + ": " + spawn_error_);
      }
    }
    if (workers_.empty()) throw std::runtime_error("fleet: no workers configured");
  }

  // --- the executor's two calls (attack::RecoveryExecutor) ----------------

  // One capture round: one task per shard of the sca recipe, merged in
  // shard order with the deferred chunk damage applied.
  std::size_t capture(const sca::ShardedCampaignConfig& round, const std::string& path) {
    const std::vector<sca::CampaignConfig> shards = sca::shard_campaign_configs(round);
    std::vector<Task> tasks(shards.size());
    std::vector<std::string> shard_paths(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      shard_paths[i] = path + ".shard" + std::to_string(i);
      TaskSpec& spec = tasks[i].spec;
      spec.task_id = next_task_id_++;
      spec.kind = TaskKind::kCapture;
      spec.capture_traces = shards[i].num_traces;
      spec.capture_seed = shards[i].seed;
      spec.fault_query_offset = shards[i].fault_query_offset;
      spec.out_path = shard_paths[i];
      // The enclosing exec.job.capture span: the worker re-parents
      // its task span under it (DESIGN.md section 13).
      spec.parent_span = obs::Span::current_context().span_id;
    }
    try {
      run_tasks(tasks);
    } catch (...) {
      close_staging(tasks);
      throw;
    }
    close_staging(tasks);
    std::size_t records = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].state != Task::State::kDone) {
        // Capture shards are load-bearing: without the shard file the
        // merged archive (and every later stage) is wrong.
        for (const auto& p : shard_paths) std::remove(p.c_str());
        throw std::runtime_error("fleet: capture shard " + std::to_string(i) +
                                 " failed permanently: " + tasks[i].result.error);
      }
      records += static_cast<std::size_t>(tasks[i].result.records);
    }
    std::string err;
    if (!sca::finish_sharded_capture(round, shard_paths, path, &err)) {
      throw std::runtime_error("fleet: capture " + err);
    }
    emit_event("fleet.capture.round", {{"round", capture_rounds_++},
                                       {"shards", shards.size()},
                                       {"records", records}});
    // Every round changes the archive the next attack reads: round 0
    // writes it, and the driver merges each later round into it before
    // attacking again. Remote attack workers lazily receive whichever
    // generation is current at dispatch time.
    ++archive_gen_;
    return records;
  }

  // Dispatches the listed components as contiguous component-range
  // shards of components_per_shard and merges every returned result by
  // global component id. The kill/hang test hooks arm in the
  // first call only (the driver's main attack batch).
  attack::AttackBatchReport attack(std::span<const std::size_t> comps,
                                   std::vector<attack::ComponentResult>& results,
                                   std::vector<std::size_t>& accepted) {
    attack::AttackBatchReport rep;
    const bool allow_hooks = out_.attack_shards == 0;
    const std::size_t per = std::max<std::size_t>(1, cfg_.components_per_shard);
    std::vector<Task> tasks;
    for (std::size_t b = 0; b < comps.size(); b += per) {
      const std::size_t shard = tasks.size();
      Task t;
      TaskSpec& spec = t.spec;
      spec.task_id = next_task_id_++;
      spec.kind = TaskKind::kAttack;
      spec.backend = static_cast<std::uint8_t>(session_.attack.backend.backend);
      spec.parent_span = obs::Span::current_context().span_id;
      spec.archive_path = cfg_.pipeline.archive_path;
      spec.checkpoint_path = cfg_.pipeline.archive_path + ".task" +
                             std::to_string(spec.task_id) + ".fdckpt";
      checkpoint_paths_.push_back(spec.checkpoint_path);
      const std::size_t end = std::min(comps.size(), b + per);
      for (std::size_t i = b; i < end; ++i) {
        spec.components.push_back(static_cast<std::uint32_t>(comps[i]));
      }
      if (allow_hooks && shard == cfg_.kill_shard) spec.kill_after = cfg_.kill_after;
      if (allow_hooks && shard == cfg_.hang_shard) spec.hang_ms = cfg_.hang_ms;
      tasks.push_back(std::move(t));
    }
    out_.attack_shards += tasks.size();
    run_tasks(tasks);
    for (const Task& t : tasks) {
      if (t.state != Task::State::kDone) {
        // The shard's components keep their current (possibly default)
        // results; the driver flags them, so the run is partial, never
        // silently wrong.
        rep.failed.insert(rep.failed.end(), t.spec.components.begin(), t.spec.components.end());
        continue;
      }
      for (const ComponentOutcome& o : t.result.outcomes) {
        results[o.component] = o.result;
        accepted[o.component] = static_cast<std::size_t>(o.accepted);
      }
      rep.quality.add(t.result.quality);
      out_.archive_scans += t.result.archive_scans;
    }
    return rep;
  }

  void cleanup(bool ok) {
    shutdown_workers();
    for (const auto& p : checkpoint_paths_) std::remove(p.c_str());
    emit_event("fleet.done", {{"ok", ok ? 1u : 0u},
                              {"workers_spawned", out_.workers_spawned},
                              {"worker_deaths", out_.worker_deaths},
                              {"reassignments", out_.reassignments}});
  }

 private:
  // --- worker lifecycle ----------------------------------------------------

  bool spawn_worker() {
    int to_pipe[2];    // coordinator writes, worker reads (stdin)
    int from_pipe[2];  // worker writes (stdout), coordinator reads
    if (::pipe(to_pipe) != 0) {
      spawn_error_ = std::strerror(errno);
      return false;
    }
    if (::pipe(from_pipe) != 0) {
      spawn_error_ = std::strerror(errno);
      ::close(to_pipe[0]);
      ::close(to_pipe[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      spawn_error_ = std::strerror(errno);
      for (const int fd : {to_pipe[0], to_pipe[1], from_pipe[0], from_pipe[1]}) ::close(fd);
      return false;
    }
    if (pid == 0) {
      // Child: protocol on stdin/stdout, everything else inherited.
      ::dup2(to_pipe[0], STDIN_FILENO);
      ::dup2(from_pipe[1], STDOUT_FILENO);
      for (const int fd : {to_pipe[0], to_pipe[1], from_pipe[0], from_pipe[1]}) ::close(fd);
      const char* argv[] = {cfg_.worker_binary.c_str(), "--worker", nullptr};
      ::execv(cfg_.worker_binary.c_str(), const_cast<char* const*>(argv));
      std::fprintf(stderr, "fleet worker: exec %s failed: %s\n", cfg_.worker_binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(to_pipe[0]);
    ::close(from_pipe[1]);
    const int flags = ::fcntl(from_pipe[0], F_GETFL, 0);
    ::fcntl(from_pipe[0], F_SETFL, flags | O_NONBLOCK);

    WorkerProc w;
    w.id = next_worker_id_++;
    w.pid = pid;
    w.transport = std::make_unique<PipeTransport>(from_pipe[0], to_pipe[1]);
    w.last_seen = Clock::now();
    w.alive = true;
    ++out_.workers_spawned;
    emit_event("fleet.worker.spawn", {{"worker", static_cast<std::uint64_t>(w.id)},
                                      {"pid", static_cast<std::uint64_t>(pid)}});

    // Ship the session immediately; the worker processes frames in
    // order, so config-before-task holds without a handshake wait.
    std::vector<std::uint8_t> payload;
    encode_session(payload, session_);
    if (!write_frame(w, FrameType::kConfig, payload)) {
      reap_worker(w, "config write failed");
      return false;
    }
    workers_.push_back(std::move(w));
    return true;
  }

  // One dial to a remote endpoint, through the bounded reconnect
  // policy. `prior_connects` keys the fault plan's per-endpoint refusal
  // draws; a blacklisted endpoint refuses every dial. Returns the ready
  // transport (fault-wrapped when a plan is armed) or nullptr with
  // spawn_error_.
  std::unique_ptr<Transport> dial_remote(std::size_t ep, std::uint32_t prior_connects) {
    const RemoteEndpoint& r = cfg_.remotes[ep];
    for (std::size_t attempt = 1;; ++attempt) {
      if (endpoint_refused_[ep] ||
          (netplan_.enabled() && netplan_.connect_refused(ep, prior_connects, attempt))) {
        spawn_error_ = "connection refused (fault plan)";
      } else {
        std::string err;
        const int fd = connect_tcp(r.host, r.port, cfg_.connect_timeout_ms, err);
        if (fd >= 0) {
          std::unique_ptr<Transport> t =
              std::make_unique<TcpTransport>(fd, cfg_.write_deadline_ms);
          if (netplan_.enabled()) {
            const std::uint64_t conn =
                (static_cast<std::uint64_t>(ep) << 32) | prior_connects;
            t = std::make_unique<FaultyTransport>(std::move(t), netplan_, conn);
          }
          return t;
        }
        spawn_error_ = err;
      }
      if (reconnect_retry_.exhausted(attempt)) return nullptr;
      const std::size_t wait_ms = reconnect_retry_.backoff_ms(attempt, ep);
      if (wait_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
  }

  // kAuth then kConfig -- the first two frames of every connection to a
  // --serve worker (fresh or re-established; same session hash keeps
  // the worker's session, caches, and staged archive).
  bool send_handshake(WorkerProc& w) {
    std::vector<std::uint8_t> payload;
    AuthFrame auth;
    auth.token = cfg_.session_token;
    auth.session_hash = session_.session_hash;
    encode_auth(payload, auth);
    if (!write_frame(w, FrameType::kAuth, payload)) return false;
    payload.clear();
    encode_session(payload, session_);
    return write_frame(w, FrameType::kConfig, payload);
  }

  bool connect_remote(std::size_t ep) {
    WorkerProc w;
    w.id = next_worker_id_++;
    w.remote = true;
    w.endpoint = ep;
    // A fault plan can eat the handshake frames of a fresh connection;
    // each spin redials with the full bounded dial budget, same shape
    // as the reconnect path.
    for (int spin = 0; spin < 8; ++spin) {
      w.transport = dial_remote(ep, w.conn_count);
      if (w.transport == nullptr) break;
      ++w.conn_count;
      if (send_handshake(w)) {
        w.last_seen = Clock::now();
        w.alive = true;
        ++out_.workers_spawned;
        ++out_.remote_workers;
        emit_event("fleet.worker.connect",
                   {{"worker", static_cast<std::uint64_t>(w.id)},
                    {"endpoint", static_cast<std::uint64_t>(ep)},
                    {"port", cfg_.remotes[ep].port}});
        workers_.push_back(std::move(w));
        return true;
      }
      spawn_error_ = "handshake write failed";
      w.transport->close_transport();
    }
    return false;
  }

  // One frame out to a worker, whole or not at all (transport
  // semantics); TCP writes carry the per-frame deadline.
  bool write_frame(WorkerProc& w, FrameType type, std::span<const std::uint8_t> payload) {
    if (w.transport == nullptr || !w.transport->is_open()) return false;
    std::vector<std::uint8_t> frame;
    encode_frame(frame, type, payload);
    return w.transport->write_all(frame);
  }

  // Kills (if still running) and reaps one worker; does NOT requeue its
  // task -- callers do that so the reason can be recorded first.
  void reap_worker(WorkerProc& w, const std::string& why) {
    if (!w.alive) return;
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
    }
    if (w.transport != nullptr) w.transport->close_transport();
    w.alive = false;
    ++out_.worker_deaths;
    emit_event("fleet.worker.dead", {{"worker", static_cast<std::uint64_t>(w.id)}}, why);
  }

  void shutdown_workers() {
    for (WorkerProc& w : workers_) {
      if (!w.alive) continue;
      write_frame(w, FrameType::kShutdown, {});
    }
    // Grace window for clean exits, then the hammer.
    const auto deadline = Clock::now() + std::chrono::milliseconds(2000);
    for (WorkerProc& w : workers_) {
      if (!w.alive) continue;
      if (w.pid > 0) {
        for (;;) {
          int status = 0;
          const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
          if (got == w.pid || got < 0) break;
          if (Clock::now() >= deadline) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, &status, 0);
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      if (w.transport != nullptr) {
        w.transport->shutdown_write();
        w.transport->close_transport();
      }
      w.alive = false;
    }
    workers_.clear();
  }

  // --- the scheduler loop --------------------------------------------------

  static bool finished(const Task& t) {
    return t.state == Task::State::kDone || t.state == Task::State::kFailed;
  }

  void requeue(std::vector<Task>& tasks, std::ptrdiff_t idx) {
    if (idx < 0) return;
    Task& t = tasks[static_cast<std::size_t>(idx)];
    if (t.state != Task::State::kRunning) return;
    if (task_retry_.exhausted(t.attempts)) {
      t.state = Task::State::kFailed;
      if (t.result.error.empty()) t.result.error = "retry budget exhausted";
      emit_event("fleet.task.failed", {{"task", t.spec.task_id}});
      return;
    }
    t.state = Task::State::kPending;
    t.eligible_at = Clock::now() + std::chrono::milliseconds(
                                       task_retry_.backoff_ms(t.attempts, t.spec.task_id));
    ++out_.reassignments;
    emit_event("fleet.task.reassign",
               {{"task", t.spec.task_id}, {"attempt", t.attempts}});
  }

  void on_worker_death(std::vector<Task>& tasks, WorkerProc& w, const std::string& why) {
    const std::ptrdiff_t task = w.task;
    w.task = -1;
    reap_worker(w, why);
    requeue(tasks, task);
  }

  // Streams the current merged archive to a remote worker as a
  // kArchivePush transfer (file_id = generation). The worker swaps it
  // in atomically and remembers the generation; attack tasks name the
  // generation they expect.
  bool push_archive(WorkerProc& w) {
    const std::string& path = cfg_.pipeline.archive_path;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fseek(f, 0, SEEK_END);
    const long size_l = std::ftell(f);
    std::rewind(f);
    if (size_l < 0) {
      std::fclose(f);
      return false;
    }
    const std::uint64_t size = static_cast<std::uint64_t>(size_l);
    const std::size_t chunk = session_.stage_chunk_bytes;
    FileStart fs;
    fs.file_id = static_cast<std::uint32_t>(archive_gen_);
    fs.role = FileRole::kArchivePush;
    fs.total_bytes = size;
    fs.chunk_bytes = static_cast<std::uint32_t>(chunk);
    fs.num_chunks = static_cast<std::uint32_t>((size + chunk - 1) / chunk);
    fs.first_chunk = 0;
    fs.name = "archive";
    std::vector<std::uint8_t> payload;
    encode_file_start(payload, fs);
    if (!write_frame(w, FrameType::kFileStart, payload)) {
      std::fclose(f);
      return false;
    }
    std::uint32_t file_crc = 0;
    FileChunk fc;
    fc.file_id = fs.file_id;
    for (std::uint32_t i = 0; i < fs.num_chunks; ++i) {
      fc.index = i;
      fc.data.resize(chunk);
      const std::size_t got = std::fread(fc.data.data(), 1, chunk, f);
      fc.data.resize(got);
      if (got == 0) break;  // file shrank underneath us: End won't match
      fc.crc = tracestore::crc32(fc.data);
      file_crc = tracestore::crc32(fc.data, file_crc);
      payload.clear();
      encode_file_chunk(payload, fc);
      if (!write_frame(w, FrameType::kFileChunk, payload)) {
        std::fclose(f);
        return false;
      }
    }
    std::fclose(f);
    FileEnd fe;
    fe.file_id = fs.file_id;
    fe.num_chunks = fs.num_chunks;
    fe.file_crc = file_crc;
    payload.clear();
    encode_file_end(payload, fe);
    if (!write_frame(w, FrameType::kFileEnd, payload)) return false;
    w.archive_gen = archive_gen_;
    emit_event("fleet.archive.push", {{"worker", static_cast<std::uint64_t>(w.id)},
                                      {"generation", archive_gen_},
                                      {"chunks", fs.num_chunks}});
    return true;
  }

  // One dispatch (or re-dispatch after reconnect) of a task to a
  // worker. t.attempts has already been counted for a fresh dispatch;
  // hooks arm on the first attempt only. Remote workers get the staged
  // variant: remapped paths, chunk-resume state, and the current
  // archive generation (pushed first if the worker is behind).
  bool send_task(WorkerProc& w, Task& t) {
    TaskSpec spec = t.spec;
    if (t.attempts > 1) {
      // Failure hooks fire on the first attempt only -- the retry must
      // complete, that's the scenario under test.
      spec.kill_after = 0;
      spec.hang_ms = 0;
    }
    if (w.remote) {
      spec.stage = true;
      if (spec.kind == TaskKind::kCapture) {
        spec.stage_have_chunks = t.staged ? t.stage_chunks_total : t.stage_chunks_ok;
      } else {
        spec.archive_generation = archive_gen_;
        if (w.archive_gen != archive_gen_ && !push_archive(w)) return false;
      }
    }
    std::vector<std::uint8_t> payload;
    encode_task(payload, spec);
    return write_frame(w, FrameType::kTask, payload);
  }

  // A remote link dropped (EOF, read/write failure, corrupt stream,
  // missed heartbeats). The serve worker keeps all its state outside
  // the connection, so first try to re-establish the SAME session in
  // place: re-dial through the bounded reconnect policy, replay the
  // handshake, and re-send the in-flight task -- a finished task is
  // answered from the worker's result cache, a staged transfer resumes
  // at stage_chunks_ok. Only when the policy is exhausted (or replay
  // keeps failing) does this escalate to the normal death path and the
  // task is reassigned onto the surviving fleet. Local workers have no
  // reconnect story; they go straight to death + reassignment.
  void handle_disconnect(std::vector<Task>& tasks, WorkerProc& w, const std::string& why) {
    if (!w.alive) return;
    if (!w.remote) {
      on_worker_death(tasks, w, why);
      return;
    }
    emit_event("fleet.worker.disconnect", {{"worker", static_cast<std::uint64_t>(w.id)}}, why);
    if (w.transport != nullptr) w.transport->close_transport();
    w.decoder = FrameDecoder();
    // Flap cap: a link that reconnects over and over without EVER
    // delivering a good frame (wrong --token: every session opens, gets
    // kError'd, and dies) must not ping-pong forever. The counter
    // resets on any well-formed non-error frame, so a merely lossy
    // link -- which does make progress between disconnects -- never
    // trips it.
    ++w.flaps;
    if (w.flaps > 8) {
      on_worker_death(tasks, w, "link flapping without progress: " + why);
      return;
    }
    // A fault plan can kill the replayed handshake too; each spin
    // redials with a fresh bounded budget, capped so a permanently
    // hostile link still terminates.
    for (int spin = 0; spin < 8; ++spin) {
      auto t = dial_remote(w.endpoint, w.conn_count);
      if (t == nullptr) break;
      w.transport = std::move(t);
      ++w.conn_count;
      w.decoder = FrameDecoder();
      w.last_seen = Clock::now();
      if (send_handshake(w) && resend_task(tasks, w)) {
        ++out_.reconnects;
        emit_event("fleet.worker.reconnect", {{"worker", static_cast<std::uint64_t>(w.id)},
                                              {"connects", w.conn_count}});
        return;
      }
      w.transport->close_transport();
    }
    on_worker_death(tasks, w, "reconnect failed: " + spawn_error_);
  }

  bool resend_task(std::vector<Task>& tasks, WorkerProc& w) {
    if (w.task < 0) return true;
    return send_task(w, tasks[static_cast<std::size_t>(w.task)]);
  }

  // Closes and removes stage-out temp files once a task vector is
  // settled (merge reads the renamed shard files, not the temps).
  void close_staging(std::vector<Task>& tasks) {
    for (Task& t : tasks) {
      if (t.stage_f != nullptr) {
        std::fclose(t.stage_f);
        t.stage_f = nullptr;
      }
      if (!t.spec.out_path.empty()) {
        std::remove((t.spec.out_path + ".stage").c_str());
      }
    }
  }

  // --- stage-out receive (remote capture shards) ---------------------------

  // Returns the in-flight task a kFile* frame belongs to, or nullptr
  // for stale traffic (e.g. a transfer that outlived a reassignment --
  // dropped just like stale results).
  Task* stage_task(std::vector<Task>& tasks, WorkerProc& w, std::uint32_t file_id) {
    if (w.task < 0) return nullptr;
    Task& t = tasks[static_cast<std::size_t>(w.task)];
    if (t.spec.task_id != file_id || t.spec.kind != TaskKind::kCapture) return nullptr;
    return &t;
  }

  void handle_file_start(std::vector<Task>& tasks, WorkerProc& w, const Frame& frame) {
    FileStart fs;
    if (!decode_file_start(frame.payload, fs)) {
      handle_disconnect(tasks, w, "undecodable file start");
      return;
    }
    Task* t = stage_task(tasks, w, fs.file_id);
    if (t == nullptr || fs.role != FileRole::kStageOut) return;  // stale: drop
    if (t->staged) return;  // re-delivery after completion: chunks 0, End ignored
    if (fs.chunk_bytes != session_.stage_chunk_bytes || fs.first_chunk != t->stage_chunks_ok ||
        (t->stage_chunks_total != 0 && fs.num_chunks != t->stage_chunks_total)) {
      handle_disconnect(tasks, w, "file start resume mismatch");
      return;
    }
    t->stage_chunks_total = fs.num_chunks;
    if (t->stage_f == nullptr) {
      // The temp stays open from first chunk to rename; chunk-resume
      // state is only ever trusted while we hold the handle.
      t->stage_f = std::fopen((t->spec.out_path + ".stage").c_str(), "wb");
      if (t->stage_f == nullptr) {
        handle_disconnect(tasks, w, "cannot open stage temp for " + t->spec.out_path);
        return;
      }
    }
  }

  void handle_file_chunk(std::vector<Task>& tasks, WorkerProc& w, const Frame& frame) {
    FileChunk fc;
    if (!decode_file_chunk(frame.payload, fc)) {
      handle_disconnect(tasks, w, "undecodable file chunk");
      return;
    }
    Task* t = stage_task(tasks, w, fc.file_id);
    if (t == nullptr || t->staged) return;  // stale: drop
    if (t->stage_f == nullptr || fc.index != t->stage_chunks_ok) {
      handle_disconnect(tasks, w, "file chunk out of order");
      return;
    }
    if (tracestore::crc32(fc.data) != fc.crc) {
      // Same contract as frame corruption: tear the connection down and
      // resume from the last chunk that verified.
      handle_disconnect(tasks, w, "file chunk crc mismatch");
      return;
    }
    if (std::fwrite(fc.data.data(), 1, fc.data.size(), t->stage_f) != fc.data.size()) {
      handle_disconnect(tasks, w, "stage temp write failed");
      return;
    }
    t->stage_crc = tracestore::crc32(fc.data, t->stage_crc);
    ++t->stage_chunks_ok;
    ++out_.staged_chunks;
  }

  void handle_file_end(std::vector<Task>& tasks, WorkerProc& w, const Frame& frame) {
    FileEnd fe;
    if (!decode_file_end(frame.payload, fe)) {
      handle_disconnect(tasks, w, "undecodable file end");
      return;
    }
    Task* t = stage_task(tasks, w, fe.file_id);
    if (t == nullptr || t->staged) return;  // stale: drop
    if (fe.num_chunks != t->stage_chunks_ok || fe.file_crc != t->stage_crc ||
        t->stage_f == nullptr) {
      // The chain disagrees with the sender's whole-file CRC: throw the
      // partial state away so the re-stream starts from chunk zero.
      if (t->stage_f != nullptr) {
        std::fclose(t->stage_f);
        t->stage_f = nullptr;
      }
      std::remove((t->spec.out_path + ".stage").c_str());
      t->stage_chunks_ok = 0;
      t->stage_crc = 0;
      handle_disconnect(tasks, w, "file end mismatch");
      return;
    }
    std::fflush(t->stage_f);
    std::fclose(t->stage_f);
    t->stage_f = nullptr;
    if (std::rename((t->spec.out_path + ".stage").c_str(), t->spec.out_path.c_str()) != 0) {
      handle_disconnect(tasks, w, "stage rename failed");
      return;
    }
    t->staged = true;
    emit_event("fleet.stage.file", {{"task", t->spec.task_id},
                                    {"worker", static_cast<std::uint64_t>(w.id)},
                                    {"chunks", fe.num_chunks}});
  }

  void handle_frame(std::vector<Task>& tasks, WorkerProc& w, const Frame& frame) {
    w.last_seen = Clock::now();
    if (frame.type != FrameType::kError) w.flaps = 0;
    switch (frame.type) {
      case FrameType::kHello:
      case FrameType::kHeartbeat:
        break;
      case FrameType::kTelemetry:
        write_worker_line(w.id, frame.payload);
        break;
      case FrameType::kProgress: {
        Progress p;
        if (decode_progress(frame.payload, p)) {
          emit_event("fleet.progress", {{"worker", static_cast<std::uint64_t>(w.id)},
                                        {"task", p.task_id},
                                        {"completed", p.completed},
                                        {"total", p.total}});
        }
        break;
      }
      case FrameType::kFileStart:
        handle_file_start(tasks, w, frame);
        break;
      case FrameType::kFileChunk:
        handle_file_chunk(tasks, w, frame);
        break;
      case FrameType::kFileEnd:
        handle_file_end(tasks, w, frame);
        break;
      case FrameType::kResult: {
        TaskResult res;
        if (!decode_result(frame.payload, res)) {
          handle_disconnect(tasks, w, "undecodable result frame");
          break;
        }
        if (w.remote && w.task >= 0) {
          const Task& pending = tasks[static_cast<std::size_t>(w.task)];
          if (pending.spec.task_id == res.task_id && res.ok &&
              pending.spec.kind == TaskKind::kCapture && !pending.staged) {
            // An ok capture result must FOLLOW its staged shard; tear
            // the link down so the replayed task re-streams the file.
            handle_disconnect(tasks, w, "capture result before staged file");
            break;
          }
        }
        const std::ptrdiff_t idx = w.task;
        w.task = -1;
        if (idx < 0 || tasks[static_cast<std::size_t>(idx)].spec.task_id != res.task_id) {
          break;  // stale result from before a reassignment: drop it
        }
        Task& t = tasks[static_cast<std::size_t>(idx)];
        t.result = std::move(res);
        if (t.result.ok) {
          t.state = Task::State::kDone;
          emit_event("fleet.task.done", {{"task", t.spec.task_id},
                                         {"worker", static_cast<std::uint64_t>(w.id)}});
        } else {
          // The worker is healthy; the task itself reported failure.
          // Bounded retries still apply (the failure may be a dead
          // archive shard a previous attempt will have rewritten).
          emit_event("fleet.task.error", {{"task", t.spec.task_id}}, t.result.error);
          requeue(tasks, idx);
        }
        break;
      }
      case FrameType::kError: {
        const std::string msg(reinterpret_cast<const char*>(frame.payload.data()),
                              frame.payload.size());
        // Remote kError (auth refusal, staging violation) closes the
        // connection worker-side; the reconnect path gets its chance
        // before the task is reassigned.
        handle_disconnect(tasks, w, "worker error: " + msg);
        break;
      }
      default:
        break;
    }
  }

  // Runs every task to kDone or kFailed, spawning/replacing workers as
  // needed. Throws only when no worker can be spawned at all.
  void run_tasks(std::vector<Task>& tasks) {
    const auto remaining = [&] {
      std::size_t r = 0;
      for (const Task& t : tasks) r += !finished(t);
      return r;
    };
    while (remaining() > 0) {
      // Reap exits the pipe hasn't surfaced yet (a SIGKILLed worker's
      // EOF usually arrives first, but don't depend on ordering).
      // Remote workers have no pid; their deaths surface through the
      // transport.
      for (WorkerProc& w : workers_) {
        if (!w.alive || w.pid <= 0) continue;
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          if (w.transport != nullptr) w.transport->close_transport();
          w.alive = false;
          ++out_.worker_deaths;
          const std::ptrdiff_t task = w.task;
          w.task = -1;
          emit_event("fleet.worker.dead", {{"worker", static_cast<std::uint64_t>(w.id)}},
                     WIFSIGNALED(status) ? "killed by signal" : "exited");
          requeue(tasks, task);
        }
      }
      std::erase_if(workers_, [](const WorkerProc& w) { return !w.alive; });

      // Keep the LOCAL fleet at strength while work remains; a dead
      // remote endpoint is not respawnable (its reconnect budget
      // already ran out).
      std::size_t locals = 0;
      for (const WorkerProc& w : workers_) locals += !w.remote;
      const std::size_t want = std::min(local_target(), remaining());
      while (locals < want) {
        if (!spawn_worker()) break;  // degrade to the workers we have
        ++locals;
      }
      if (workers_.empty()) {
        if (local_target() > 0) {
          throw std::runtime_error("fleet: no workers could be spawned: " + spawn_error_);
        }
        // Remote-only fleet with every endpoint gone: fail what's left
        // so attack stages degrade to partial (capture stages throw at
        // their shard check).
        for (Task& t : tasks) {
          if (finished(t)) continue;
          t.state = Task::State::kFailed;
          if (t.result.error.empty()) t.result.error = "no workers remaining";
          emit_event("fleet.task.failed", {{"task", t.spec.task_id}});
        }
        return;
      }

      // Assign eligible pending tasks to idle workers, both in index
      // order (scheduling order is observability-only; results merge by
      // component id).
      const auto now = Clock::now();
      for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
        Task& t = tasks[ti];
        if (t.state != Task::State::kPending || t.eligible_at > now) continue;
        WorkerProc* idle = nullptr;
        for (WorkerProc& w : workers_) {
          if (w.alive && w.task < 0) {
            idle = &w;
            break;
          }
        }
        if (idle == nullptr) break;
        ++t.attempts;
        const bool cut = idle->remote && netplan_.enabled() &&
                         netplan_.refuses_after_task(++endpoint_tasks_[idle->endpoint]);
        if (!cut && !send_task(*idle, t)) {
          // The reconnect path may revive a remote link in place; the
          // task stays pending either way and is retried next pass.
          handle_disconnect(tasks, *idle, "task write failed");
          continue;
        }
        t.state = Task::State::kRunning;
        idle->task = static_cast<std::ptrdiff_t>(ti);
        emit_event("fleet.task.assign",
                   {{"task", t.spec.task_id},
                    {"worker", static_cast<std::uint64_t>(idle->id)},
                    {"attempt", t.attempts},
                    {"components", t.spec.components.size()}});
        if (cut) {
          // The plan's blacklist: the link drops with this task in
          // flight and every redial is refused, so the task is reassigned.
          endpoint_refused_[idle->endpoint] = true;
          handle_disconnect(tasks, *idle, "endpoint refused (fault plan)");
        }
      }

      // Wait for traffic. fds[i] pairs with workers_[i]; a mid-loop
      // reconnect swaps the transport under a stale pollfd, which at
      // worst costs one idle poll tick.
      std::vector<pollfd> fds;
      fds.reserve(workers_.size());
      for (const WorkerProc& w : workers_) {
        fds.push_back({w.transport == nullptr ? -1 : w.transport->poll_fd(), POLLIN, 0});
      }
      const int timeout_ms = static_cast<int>(
          std::clamp<std::size_t>(cfg_.heartbeat_interval_ms, 5, 200));
      ::poll(fds.data(), fds.size(), timeout_ms);

      for (std::size_t i = 0; i < fds.size(); ++i) {
        WorkerProc& w = workers_[i];
        if (!w.alive || w.transport == nullptr ||
            (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        bool eof = false;
        bool rderr = false;
        std::uint8_t buf[64 << 10];
        for (;;) {
          const std::ptrdiff_t k = w.transport->read_some(buf, sizeof buf);
          if (k > 0) {
            w.decoder.feed({buf, static_cast<std::size_t>(k)});
            continue;
          }
          if (k == 0) eof = true;
          if (k == Transport::kError) rderr = true;
          break;  // kWouldBlock (drained) or EOF or error
        }
        Frame frame;
        while (w.alive && w.decoder.next(frame)) handle_frame(tasks, w, frame);
        if (w.alive && w.decoder.corrupt()) {
          handle_disconnect(tasks, w, "corrupt frame stream: " + w.decoder.error());
        } else if (w.alive && (eof || rderr)) {
          handle_disconnect(tasks, w, rderr ? "transport read error" : "connection closed");
        }
      }

      // Heartbeat timeouts: any frame counts as liveness. For remotes
      // this covers the silent-link case (stalled or dropped without a
      // FIN): the reconnect path runs before reassignment.
      const auto deadline_now = Clock::now();
      for (WorkerProc& w : workers_) {
        if (!w.alive) continue;
        const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
                                deadline_now - w.last_seen)
                                .count();
        if (silent > static_cast<long long>(cfg_.heartbeat_timeout_ms)) {
          handle_disconnect(tasks, w, "heartbeat timeout");
        }
      }
    }
  }

  // --- telemetry -----------------------------------------------------------

  void write_line(std::string_view line) {
    if (telem_ == nullptr || line.empty()) return;
    // The resource-sampler thread records through CoordSink while the
    // poll loop writes worker lines; one lock keeps lines whole.
    const std::lock_guard<std::mutex> lock(telem_mu_);
    std::fwrite(line.data(), 1, line.size(), telem_);
    std::fputc('\n', telem_);
    std::fflush(telem_);  // per-line flush: --follow tails a live run
    ++out_.telemetry_lines;
  }

  // Tags a worker's JSONL line with its id: `..}` -> `..,"worker":N}`.
  void write_worker_line(int worker_id, std::span<const std::uint8_t> payload) {
    if (telem_ == nullptr) return;
    std::string line(reinterpret_cast<const char*>(payload.data()), payload.size());
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
    const std::size_t brace = line.rfind('}');
    if (brace != std::string::npos) {
      line.insert(brace, ",\"worker\":" + std::to_string(worker_id));
    }
    write_line(line);
  }

  // Coordinator-side fleet.* lines, built on the always-compiled Event
  // model so they flow even in FD_OBS=OFF builds.
  void emit_event(std::string_view name,
                  std::initializer_list<std::pair<const char*, std::uint64_t>> fields,
                  const std::string& detail = {}) {
    if (telem_ == nullptr) return;
    obs::Event ev;
    ev.name = std::string(name);
    ev.add("ts_us", obs::FieldValue::of(steady_us()));
    for (const auto& [key, value] : fields) ev.add(key, obs::FieldValue::of(value));
    if (!detail.empty()) ev.add("detail", obs::FieldValue::of(std::string_view(detail)));
    write_coord_event(ev);
  }

  // Tags an event "worker":"coord" (unless it already carries a numeric
  // "worker" subject field, e.g. fleet.worker.spawn) and writes it, so
  // the unified stream has no untagged rows.
  void write_coord_event(const obs::Event& ev) {
    if (ev.find("worker") != nullptr) {
      write_line(obs::to_jsonl(ev));
      return;
    }
    obs::Event tagged = ev;
    tagged.add("worker", obs::FieldValue::of(std::string_view("coord")));
    write_line(obs::to_jsonl(tagged));
  }

  // Sink for the coordinator's own obs events (JobGraph stage spans,
  // resource samples, thread names): straight into the unified file.
  class CoordSink final : public obs::TelemetrySink {
   public:
    explicit CoordSink(Coordinator& coord) : coord_(coord) {}
    void record(const obs::Event& ev) override { coord_.write_coord_event(ev); }

   private:
    Coordinator& coord_;
  };

  const FleetConfig& cfg_;
  FleetResult& out_;
  NetFaultPlan netplan_;
  // Per remote endpoint: fresh task dispatches so far (sent or not), and
  // whether the fault plan has blacklisted it (refuse_after_tasks).
  std::vector<std::uint32_t> endpoint_tasks_;
  std::vector<bool> endpoint_refused_;
  exec::RetryPolicy task_retry_;
  exec::RetryPolicy reconnect_retry_;
  std::uint64_t archive_gen_ = 0;
  std::size_t capture_rounds_ = 0;
  falcon::KeyPair victim_;
  std::size_t n_ = 0;
  SessionConfig session_;

  std::vector<WorkerProc> workers_;
  int next_worker_id_ = 0;
  std::uint32_t next_task_id_ = 1;
  std::string spawn_error_;

  std::vector<std::string> checkpoint_paths_;

  std::unique_ptr<CoordSink> coord_sink_;
  obs::TelemetrySink* prev_sink_ = nullptr;
  bool sink_installed_ = false;
  std::unique_ptr<obs::ResourceSampler> sampler_;
  std::mutex telem_mu_;
  std::FILE* telem_ = nullptr;
};

// Writing into a pipe whose worker just died must surface as EPIPE, not
// kill the coordinator. Scoped so library users keep their disposition.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() { prev_ = ::signal(SIGPIPE, SIG_IGN); }
  ~ScopedSigpipeIgnore() { ::signal(SIGPIPE, prev_); }

 private:
  void (*prev_)(int);
};

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  FleetResult out;
  ScopedSigpipeIgnore sigpipe;
  Coordinator coord(config, out);
  if (!coord.init()) return out;

  // Fleet checkpointing is per task, inside the executor; the driver's
  // own checkpoint, resume, interrupt and kill hooks belong to the
  // single-process run.
  attack::RecoveryPipelineConfig pipeline = config.pipeline;
  pipeline.checkpoint = false;
  pipeline.resume = false;
  pipeline.abort_after_components = 0;
  pipeline.interrupt_flag = nullptr;
  attack::RecoveryExecutor executor;
  executor.capture = [&](const sca::ShardedCampaignConfig& round, const std::string& path) {
    return coord.capture(round, path);
  };
  executor.attack = [&](std::span<const std::size_t> components,
                        std::vector<attack::ComponentResult>& results,
                        std::vector<std::size_t>& accepted) {
    return coord.attack(components, results, accepted);
  };
  {
    // The campaign root: stage spans (exec.job.*) nest under it via the
    // thread-local span stack, and its ids adopt the ambient context
    // installed by init()'s set_trace_root, so every process in the run
    // shares one trace_id.
    obs::Span root("fleet.pipeline", obs::Span::Root::kAdopt);
    exec::JobGraph spawn;
    spawn.add("spawn", [&] { coord.stage_spawn(); });
    const auto spawn_report = spawn.run_collect(nullptr, &out.error);
    if (out.error.empty()) {
      static_cast<attack::RecoveryPipelineResult&>(out) =
          attack::run_recovery_pipeline(coord.victim(), pipeline, &executor);
    }
    out.stages.insert(out.stages.begin(), spawn_report.begin(), spawn_report.end());
  }
  coord.cleanup(out.ok);
  obs::MetricsRegistry::global().counter("fleet.runs").add(1);
  return out;
}

}  // namespace fd::fleet
