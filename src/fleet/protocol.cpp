#include "fleet/protocol.h"

#include <bit>
#include <cstring>

#include "sca/device.h"
#include "tracestore/archive.h"

namespace fd::fleet {

namespace {

// Little-endian primitive serde, shared by every payload codec. Doubles
// travel as raw IEEE-754 bits so a round trip is bit-exact (the same
// policy as attack/checkpoint.cpp).
void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& b, double v) {
  put_u64(b, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::uint8_t>& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

// Bounds-checked reader; any overrun latches fail and every later read
// returns zero, so decoders can check once at the end.
struct Cursor {
  std::span<const std::uint8_t> bytes;
  std::size_t off = 0;
  bool fail = false;

  [[nodiscard]] bool take(std::size_t n) {
    if (fail || bytes.size() - off < n) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return bytes[off++];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    const auto v = static_cast<std::uint16_t>(bytes[off] | bytes[off + 1] << 8);
    off += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[off + i]) << (8 * i);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(bytes.data() + off), n);
    off += n;
    return s;
  }
  [[nodiscard]] bool done() const { return !fail && off == bytes.size(); }
};

}  // namespace

// --- framing ---------------------------------------------------------------

void encode_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  const std::size_t start = out.size();
  put_u32(out, kFrameMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  // CRC over type + length + payload (chained: crc32 seeds compose to
  // the CRC of the concatenation). Magic/version corruption is caught
  // by their own checks; everything else is caught here.
  std::uint32_t crc = tracestore::crc32({out.data() + start + 6, 6});
  crc = tracestore::crc32(payload, crc);
  put_u32(out, crc);
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (corrupt_) return;
  // Compact consumed prefix before growing -- the buffer stays bounded
  // by one frame plus one read() fragment.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool FrameDecoder::next(Frame& out) {
  if (corrupt_) return false;
  // Junk is rejected as soon as the magic is readable -- a stream that
  // starts wrong should not sit in "need more bytes" until a whole
  // header trickles in.
  if (buf_.size() - pos_ >= 4) {
    Cursor m{{buf_.data() + pos_, 4}, 0, false};
    if (m.u32() != kFrameMagic) {
      corrupt_ = true;
      error_ = "bad frame magic";
      return false;
    }
  }
  if (buf_.size() - pos_ < kFrameHeaderSize) return false;
  Cursor c{{buf_.data() + pos_, buf_.size() - pos_}, 0, false};
  c.u32();  // magic, validated above
  const std::uint16_t version = c.u16();
  const std::uint16_t type = c.u16();
  const std::uint32_t len = c.u32();
  const std::uint32_t crc = c.u32();
  if (version != kProtocolVersion) {
    corrupt_ = true;
    error_ = "unsupported protocol version " + std::to_string(version);
    return false;
  }
  if (len > kMaxPayload) {
    corrupt_ = true;
    error_ = "oversized frame payload";
    return false;
  }
  if (buf_.size() - pos_ < kFrameHeaderSize + len) return false;  // need more bytes
  std::uint32_t want = tracestore::crc32({buf_.data() + pos_ + 6, 6});
  want = tracestore::crc32({buf_.data() + pos_ + kFrameHeaderSize, len}, want);
  if (want != crc) {
    corrupt_ = true;
    error_ = "frame crc mismatch";
    return false;
  }
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderSize),
                     buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderSize + len));
  pos_ += kFrameHeaderSize + len;
  return true;
}

// --- SessionConfig ---------------------------------------------------------

void encode_session(std::vector<std::uint8_t>& out, const SessionConfig& cfg) {
  put_u32(out, cfg.logn);
  put_str(out, cfg.victim_seed);
  const attack::KeyRecoveryConfig& a = cfg.attack;
  put_u64(out, a.num_traces);
  put_f64(out, a.device.alpha);
  put_f64(out, a.device.noise_sigma);
  put_u32(out, a.device.samples_per_event);
  put_u32(out, a.device.jitter_max);
  out.push_back(a.device.constant_weight ? 1 : 0);
  put_u64(out, a.extend_top_k);
  put_u64(out, a.adversarial_random);
  put_u64(out, a.cpa_batch);
  put_u64(out, a.seed);
  put_u64(out, a.threads);
  put_u64(out, a.cpa_shards);
  const distinguisher::BackendSelection& bs = a.backend;
  out.push_back(static_cast<std::uint8_t>(bs.backend));
  put_u64(out, bs.profile_seed);
  put_u64(out, bs.profile_traces);
  put_u64(out, bs.profile_components);
  put_u64(out, bs.lr_iters);
  put_f64(out, bs.lr_rate);
  put_f64(out, bs.lr_l2);
  const sca::FaultConfig& f = cfg.faults;
  put_f64(out, f.drop_rate);
  put_f64(out, f.desync_rate);
  put_u32(out, f.desync_min);
  put_u32(out, f.desync_max);
  put_f64(out, f.saturate_rate);
  put_f64(out, f.saturate_level);
  put_f64(out, f.glitch_rate);
  put_f64(out, f.glitch_amplitude);
  put_f64(out, f.chunk_corrupt_rate);
  put_f64(out, f.capture_fail_rate);
  put_u64(out, f.seed);
  const attack::QualityConfig& q = cfg.quality;
  out.push_back(q.enabled ? 1 : 0);
  put_f64(out, q.saturation_pinned_frac);
  put_u64(out, q.saturation_min_pinned);
  put_f64(out, q.energy_mad_k);
  put_u32(out, q.max_lag);
  put_f64(out, q.min_alignment_corr);
  put_u32(out, q.refine_iters);
  put_u64(out, cfg.checkpoint_every);
  put_u64(out, cfg.session_hash);
  put_u64(out, cfg.heartbeat_interval_ms);
  put_u64(out, cfg.trace_id);
  put_u64(out, cfg.profile_interval_ms);
  put_u64(out, cfg.stage_chunk_bytes);
}

bool decode_session(std::span<const std::uint8_t> bytes, SessionConfig& out) {
  Cursor c{bytes, 0, false};
  out.logn = c.u32();
  out.victim_seed = c.str();
  attack::KeyRecoveryConfig& a = out.attack;
  a.num_traces = static_cast<std::size_t>(c.u64());
  a.device.alpha = c.f64();
  a.device.noise_sigma = c.f64();
  a.device.samples_per_event = c.u32();
  a.device.jitter_max = c.u32();
  a.device.constant_weight = c.u8() != 0;
  a.extend_top_k = static_cast<std::size_t>(c.u64());
  a.adversarial_random = static_cast<std::size_t>(c.u64());
  a.cpa_batch = static_cast<std::size_t>(c.u64());
  a.seed = c.u64();
  a.threads = static_cast<std::size_t>(c.u64());
  a.cpa_shards = static_cast<std::size_t>(c.u64());
  distinguisher::BackendSelection& bs = a.backend;
  const std::uint8_t backend = c.u8();
  if (backend > static_cast<std::uint8_t>(distinguisher::Backend::kLr)) return false;
  bs.backend = static_cast<distinguisher::Backend>(backend);
  bs.profile_seed = c.u64();
  bs.profile_traces = static_cast<std::size_t>(c.u64());
  bs.profile_components = static_cast<std::size_t>(c.u64());
  bs.lr_iters = static_cast<std::size_t>(c.u64());
  bs.lr_rate = c.f64();
  bs.lr_l2 = c.f64();
  sca::FaultConfig& f = out.faults;
  f.drop_rate = c.f64();
  f.desync_rate = c.f64();
  f.desync_min = c.u32();
  f.desync_max = c.u32();
  f.saturate_rate = c.f64();
  f.saturate_level = c.f64();
  f.glitch_rate = c.f64();
  f.glitch_amplitude = c.f64();
  f.chunk_corrupt_rate = c.f64();
  f.capture_fail_rate = c.f64();
  f.seed = c.u64();
  attack::QualityConfig& q = out.quality;
  q.enabled = c.u8() != 0;
  q.saturation_pinned_frac = c.f64();
  q.saturation_min_pinned = static_cast<std::size_t>(c.u64());
  q.energy_mad_k = c.f64();
  q.max_lag = c.u32();
  q.min_alignment_corr = c.f64();
  q.refine_iters = c.u32();
  out.checkpoint_every = static_cast<std::size_t>(c.u64());
  out.session_hash = c.u64();
  out.heartbeat_interval_ms = static_cast<std::size_t>(c.u64());
  out.trace_id = c.u64();
  out.profile_interval_ms = static_cast<std::size_t>(c.u64());
  out.stage_chunk_bytes = static_cast<std::size_t>(c.u64());
  return c.done() && out.logn >= 1 && out.logn <= 10 && a.device.valid() &&
         out.stage_chunk_bytes >= 1 && out.stage_chunk_bytes <= kMaxPayload / 2;
}

// --- TaskSpec --------------------------------------------------------------

void encode_task(std::vector<std::uint8_t>& out, const TaskSpec& spec) {
  put_u32(out, spec.task_id);
  out.push_back(static_cast<std::uint8_t>(spec.kind));
  put_u64(out, spec.capture_traces);
  put_u64(out, spec.capture_seed);
  put_u64(out, spec.fault_query_offset);
  put_str(out, spec.out_path);
  put_str(out, spec.archive_path);
  put_str(out, spec.checkpoint_path);
  put_u32(out, static_cast<std::uint32_t>(spec.components.size()));
  for (const std::uint32_t comp : spec.components) put_u32(out, comp);
  put_u32(out, spec.kill_after);
  put_u32(out, spec.hang_ms);
  put_u64(out, spec.parent_span);
  out.push_back(spec.backend);
  out.push_back(spec.stage ? 1 : 0);
  put_u32(out, spec.stage_have_chunks);
  put_u64(out, spec.archive_generation);
}

bool decode_task(std::span<const std::uint8_t> bytes, TaskSpec& out) {
  Cursor c{bytes, 0, false};
  out.task_id = c.u32();
  const std::uint8_t kind = c.u8();
  if (kind > 1) return false;
  out.kind = static_cast<TaskKind>(kind);
  out.capture_traces = c.u64();
  out.capture_seed = c.u64();
  out.fault_query_offset = c.u64();
  out.out_path = c.str();
  out.archive_path = c.str();
  out.checkpoint_path = c.str();
  const std::uint32_t n = c.u32();
  out.components.clear();
  if (c.fail || n > (bytes.size() - c.off) / 4) return false;
  out.components.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.components.push_back(c.u32());
  out.kill_after = c.u32();
  out.hang_ms = c.u32();
  out.parent_span = c.u64();
  out.backend = c.u8();
  out.stage = c.u8() != 0;
  out.stage_have_chunks = c.u32();
  out.archive_generation = c.u64();
  return c.done() &&
         out.backend <= static_cast<std::uint8_t>(distinguisher::Backend::kLr);
}

// --- TaskResult ------------------------------------------------------------

void encode_result(std::vector<std::uint8_t>& out, const TaskResult& res) {
  put_u32(out, res.task_id);
  out.push_back(static_cast<std::uint8_t>(res.kind));
  out.push_back(res.ok ? 1 : 0);
  put_str(out, res.error);
  put_u64(out, res.queries);
  put_u64(out, res.records);
  put_u32(out, static_cast<std::uint32_t>(res.outcomes.size()));
  for (const ComponentOutcome& o : res.outcomes) {
    put_u32(out, o.component);
    attack::serialize_component_result(out, o.result);
    put_u64(out, o.accepted);
  }
  const attack::QualityReport& q = res.quality;
  put_u64(out, q.total);
  put_u64(out, q.accepted);
  put_u64(out, q.rejected_saturated);
  put_u64(out, q.rejected_energy);
  put_u64(out, q.rejected_alignment);
  put_u64(out, q.realigned);
  put_u64(out, res.archive_scans);
  put_u64(out, res.span);
}

bool decode_result(std::span<const std::uint8_t> bytes, TaskResult& out) {
  Cursor c{bytes, 0, false};
  out.task_id = c.u32();
  const std::uint8_t kind = c.u8();
  if (kind > 1) return false;
  out.kind = static_cast<TaskKind>(kind);
  out.ok = c.u8() != 0;
  out.error = c.str();
  out.queries = c.u64();
  out.records = c.u64();
  const std::uint32_t n = c.u32();
  out.outcomes.clear();
  if (c.fail || n > bytes.size()) return false;  // each outcome is >= 1 byte
  out.outcomes.reserve(n);
  for (std::uint32_t i = 0; i < n && !c.fail; ++i) {
    ComponentOutcome o;
    o.component = c.u32();
    if (c.fail) return false;
    std::size_t off = c.off;
    if (!attack::deserialize_component_result(bytes, off, o.result)) return false;
    c.off = off;
    o.accepted = c.u64();
    out.outcomes.push_back(std::move(o));
  }
  attack::QualityReport& q = out.quality;
  q.total = static_cast<std::size_t>(c.u64());
  q.accepted = static_cast<std::size_t>(c.u64());
  q.rejected_saturated = static_cast<std::size_t>(c.u64());
  q.rejected_energy = static_cast<std::size_t>(c.u64());
  q.rejected_alignment = static_cast<std::size_t>(c.u64());
  q.realigned = static_cast<std::size_t>(c.u64());
  out.archive_scans = c.u64();
  out.span = c.u64();
  return c.done();
}

// --- small frames ----------------------------------------------------------

void encode_hello(std::vector<std::uint8_t>& out, const Hello& h) {
  put_u16(out, h.version);
  put_u64(out, h.pid);
}

bool decode_hello(std::span<const std::uint8_t> bytes, Hello& out) {
  Cursor c{bytes, 0, false};
  out.version = c.u16();
  out.pid = c.u64();
  return c.done();
}

void encode_progress(std::vector<std::uint8_t>& out, const Progress& p) {
  put_u32(out, p.task_id);
  put_u64(out, p.completed);
  put_u64(out, p.total);
  put_u64(out, p.span);
}

bool decode_progress(std::span<const std::uint8_t> bytes, Progress& out) {
  Cursor c{bytes, 0, false};
  out.task_id = c.u32();
  out.completed = c.u64();
  out.total = c.u64();
  out.span = c.u64();
  return c.done();
}

// --- handshake + staging ---------------------------------------------------

void encode_auth(std::vector<std::uint8_t>& out, const AuthFrame& a) {
  put_str(out, a.token);
  put_u64(out, a.session_hash);
}

bool decode_auth(std::span<const std::uint8_t> bytes, AuthFrame& out) {
  Cursor c{bytes, 0, false};
  out.token = c.str();
  out.session_hash = c.u64();
  return c.done();
}

void encode_file_start(std::vector<std::uint8_t>& out, const FileStart& f) {
  put_u32(out, f.file_id);
  out.push_back(static_cast<std::uint8_t>(f.role));
  put_u64(out, f.total_bytes);
  put_u32(out, f.chunk_bytes);
  put_u32(out, f.num_chunks);
  put_u32(out, f.first_chunk);
  put_str(out, f.name);
}

bool decode_file_start(std::span<const std::uint8_t> bytes, FileStart& out) {
  Cursor c{bytes, 0, false};
  out.file_id = c.u32();
  const std::uint8_t role = c.u8();
  if (role > 1) return false;
  out.role = static_cast<FileRole>(role);
  out.total_bytes = c.u64();
  out.chunk_bytes = c.u32();
  out.num_chunks = c.u32();
  out.first_chunk = c.u32();
  out.name = c.str();
  return c.done() && out.chunk_bytes >= 1 && out.first_chunk <= out.num_chunks;
}

void encode_file_chunk(std::vector<std::uint8_t>& out, const FileChunk& f) {
  put_u32(out, f.file_id);
  put_u32(out, f.index);
  put_u32(out, f.crc);
  put_u32(out, static_cast<std::uint32_t>(f.data.size()));
  out.insert(out.end(), f.data.begin(), f.data.end());
}

bool decode_file_chunk(std::span<const std::uint8_t> bytes, FileChunk& out) {
  Cursor c{bytes, 0, false};
  out.file_id = c.u32();
  out.index = c.u32();
  out.crc = c.u32();
  const std::uint32_t n = c.u32();
  if (c.fail || n > bytes.size() - c.off) return false;
  out.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(c.off),
                  bytes.begin() + static_cast<std::ptrdiff_t>(c.off + n));
  c.off += n;
  return c.done();
}

void encode_file_end(std::vector<std::uint8_t>& out, const FileEnd& f) {
  put_u32(out, f.file_id);
  put_u32(out, f.num_chunks);
  put_u32(out, f.file_crc);
}

bool decode_file_end(std::span<const std::uint8_t> bytes, FileEnd& out) {
  Cursor c{bytes, 0, false};
  out.file_id = c.u32();
  out.num_chunks = c.u32();
  out.file_crc = c.u32();
  return c.done();
}

}  // namespace fd::fleet
