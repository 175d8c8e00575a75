#pragma once
// Persistent trace archive (.fdtrace): capture once, attack many times.
//
// Campaigns used to live only in process memory, so every analysis
// variant re-ran the victim signer. This subsystem gives captured traces
// a durable, streamable on-disk form, the way a lab stores scope
// captures: a campaign is written once (optionally sharded across
// workers under different seeds) and re-read arbitrarily often with
// bounded memory, independent of campaign size.
//
// On-disk layout (all integers and floats little-endian):
//
//   +--------------------------------------------------+
//   | file header (80 bytes, kHeaderBytes)             |
//   |   0  magic   "FDTRACE1"                  8 bytes |
//   |   8  version u32  (kFormatVersion)               |
//   |  12  header_bytes u32 (= 80)                     |
//   |  16  logn u32   | 20 row u32                     |
//   |  24  num_slots u32 (n/2)                         |
//   |  28  samples_per_trace u32                       |
//   |  32  traces_per_chunk u32                        |
//   |  36  flags u32 (bit0 constant_weight, bit1 merged)|
//   |  40  alpha f64  | 48 noise_sigma f64             |
//   |  56  samples_per_event u32 | 60 jitter_max u32   |
//   |  64  seed u64   | 72 reserved u64 (zero)         |
//   +--------------------------------------------------+
//   | chunk 0: header (16 bytes) + payload             |
//   |   magic "CHNK" u32 | record_count u32            |
//   |   payload_crc32 u32 | reserved u32               |
//   |   payload = record_count * record_size bytes     |
//   | chunk 1: ...                                     |
//   +--------------------------------------------------+
//
// One record (24 + 4*samples_per_trace bytes):
//   slot u32 | index u32 (signing-query index) |
//   known_re u64 (IEEE-754 bits) | known_im u64 | samples f32[S]
//
// Integrity policy: each chunk's payload carries a CRC32 (IEEE
// reflected polynomial 0xEDB88320). A reader that hits a CRC mismatch
// skips that chunk (its size is known from the header) and keeps
// going; a short chunk header or short payload marks a truncated tail
// and ends the stream cleanly. Neither case crashes or loses the
// records of intact chunks.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace fd::tracestore {

inline constexpr char kFileMagic[8] = {'F', 'D', 'T', 'R', 'A', 'C', 'E', '1'};
inline constexpr std::uint32_t kChunkMagic = 0x4B4E4843;  // "CHNK"
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 80;
inline constexpr std::size_t kChunkHeaderBytes = 16;
inline constexpr std::size_t kDefaultTracesPerChunk = 64;

inline constexpr std::uint32_t kFlagConstantWeight = 1U << 0;
inline constexpr std::uint32_t kFlagMerged = 1U << 1;

// CRC32 (IEEE 802.3, reflected, init/final xor 0xFFFFFFFF), the policy
// checksum of chunk payloads. Exposed for tests and external tooling.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0);

// Capture context stored in the file header. Mirrors
// sca::CampaignConfig + sca::DeviceConfig without depending on them:
// the format layer stays free of capture-layer types so offline tools
// link only this library.
struct ArchiveMeta {
  std::uint32_t version = kFormatVersion;
  std::uint32_t logn = 0;
  std::uint32_t row = 0;        // 0 = f-row windows, 1 = F-row windows
  std::uint32_t num_slots = 0;  // n/2 complex slots
  std::uint32_t samples_per_trace = 0;
  std::uint32_t traces_per_chunk = kDefaultTracesPerChunk;
  std::uint32_t flags = 0;
  double alpha = 1.0;
  double noise_sigma = 0.0;
  std::uint32_t samples_per_event = 1;
  std::uint32_t jitter_max = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t record_bytes() const {
    return 24 + 4 * static_cast<std::size_t>(samples_per_trace);
  }
  // Everything that must match for two shards to be mergeable (seed and
  // flags may differ -- that is the point of sharding).
  [[nodiscard]] bool compatible_with(const ArchiveMeta& other) const;
};

// One captured window: the adversary-visible trace of a single
// (signing query, complex slot) pair plus the known FFT(c) operands.
struct TraceRecord {
  std::uint32_t slot = 0;
  std::uint32_t index = 0;  // signing-query index within the campaign
  std::uint64_t known_re_bits = 0;
  std::uint64_t known_im_bits = 0;
  std::vector<float> samples;
};

struct ArchiveStats {
  std::size_t records_read = 0;
  std::size_t chunks_ok = 0;
  std::size_t chunks_corrupt = 0;  // CRC mismatch, skipped
  // File-order ordinals (0-based) of the chunks that failed their CRC
  // -- which shard of a campaign is damaged, not just how many.
  std::vector<std::size_t> corrupt_chunk_indices;
  bool truncated_tail = false;  // short chunk header or payload
  [[nodiscard]] bool clean() const { return chunks_corrupt == 0 && !truncated_tail; }
};

// Buffered writer: records accumulate into one chunk's payload and are
// flushed (with their CRC) every `traces_per_chunk` appends. Memory is
// one chunk regardless of campaign size. open() refuses the geometry
// ArchiveReader::open refuses.
class ArchiveWriter {
 public:
  ArchiveWriter() = default;
  ~ArchiveWriter();
  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  [[nodiscard]] bool open(const std::string& path, const ArchiveMeta& meta);
  // Fails if `rec.samples.size() != meta.samples_per_trace`.
  [[nodiscard]] bool append(const TraceRecord& rec);
  // Flushes any partial chunk and closes the file. Idempotent.
  [[nodiscard]] bool close();

  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  [[nodiscard]] std::size_t records_written() const { return records_written_; }
  [[nodiscard]] const ArchiveMeta& meta() const { return meta_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool flush_chunk();
  void fail(const std::string& what);

  std::FILE* file_ = nullptr;
  ArchiveMeta meta_;
  std::vector<std::uint8_t> payload_;  // pending chunk payload
  std::size_t pending_records_ = 0;
  std::size_t records_written_ = 0;
  std::string error_;
};

// Streaming reader. Decodes one chunk at a time, so peak memory is
// O(traces_per_chunk * record_bytes) no matter how many traces the
// archive holds. Corrupt chunks are skipped and counted; a truncated
// tail ends the stream without error.
class ArchiveReader {
 public:
  ArchiveReader() = default;
  ~ArchiveReader();
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  // Fails on an unreadable or malformed header, including a record
  // geometry whose size overflows (24 + 4 * samples_per_trace > 2^32-1).
  [[nodiscard]] bool open(const std::string& path);
  // Next record in file order; false at end of stream. Decodes into
  // `out` in place: passing the same record every call reuses its
  // sample buffer, so a scan allocates nothing per record.
  [[nodiscard]] bool next(TraceRecord& out);
  // Appends up to `max_records` records to `out`; returns how many.
  std::size_t next_batch(std::vector<TraceRecord>& out, std::size_t max_records);
  // Back to the first record (stats reset).
  void rewind();

  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  [[nodiscard]] const ArchiveMeta& meta() const { return meta_; }
  [[nodiscard]] const ArchiveStats& stats() const { return stats_; }
  // High-water mark of decoded records held at once -- the bounded-
  // memory guarantee, asserted by tests to be <= traces_per_chunk.
  [[nodiscard]] std::size_t max_resident_records() const { return max_resident_; }
  // Record-reading passes started on this reader: the first next() after
  // open() or each rewind() counts one. Single-pass attack drivers pin
  // "exactly one archive scan" against this (and against the
  // attack.archive.scans metric for cross-reader totals).
  [[nodiscard]] std::size_t scans_started() const { return scans_started_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool load_next_chunk();  // false when the stream is exhausted

  std::FILE* file_ = nullptr;
  long file_bytes_ = 0;  // file size at open: bounds every chunk length
  long offset_ = 0;      // file offset of the next unread byte
  ArchiveMeta meta_;
  ArchiveStats stats_;
  // CRC-checked payload of the current chunk; next() decodes record
  // chunk_pos_ of chunk_records_ straight from it into the caller's
  // record, reusing that record's sample buffer.
  std::vector<std::uint8_t> payload_;
  std::size_t chunk_records_ = 0;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_ordinal_ = 0;  // file-order index of the next chunk
  std::size_t max_resident_ = 0;
  std::size_t scans_started_ = 0;
  bool scan_counted_ = false;  // current pass already in scans_started_
  std::string error_;
};

// Full-file integrity pass (the `fd-tracedb verify` core).
struct VerifyReport {
  ArchiveMeta meta;
  std::size_t records = 0;
  std::size_t chunks_ok = 0;
  std::size_t chunks_corrupt = 0;
  std::vector<std::size_t> corrupt_chunks;  // file-order chunk ordinals
  bool truncated_tail = false;
  [[nodiscard]] bool clean() const { return chunks_corrupt == 0 && !truncated_tail; }
};
[[nodiscard]] bool verify_archive(const std::string& path, VerifyReport& report,
                                  std::string* error = nullptr);

// Joins shards captured under different seeds/workers into one archive.
// Inputs must be pairwise compatible (same logn/row/slot count/trace
// length/device model); signing-query indices are re-based so the merged
// campaign reads as one contiguous query sequence. Corrupt chunks in the
// inputs are skipped, not propagated. Streams both passes, so merge
// memory is one chunk per side.
[[nodiscard]] bool merge_archives(std::span<const std::string> inputs,
                                  const std::string& out_path,
                                  std::string* error = nullptr);

// Salvage pass (the `fd-tracedb repair` core): copies every CRC-valid
// chunk's records of `in_path` into a fresh archive at `out_path`,
// dropping damaged chunks. The report names exactly what was lost:
// the ordinals of the dropped chunks and the file-order record
// ordinals they held (counts come from the chunk headers, which stay
// readable when only the payload is damaged -- a chunk whose header
// itself is unreadable ends the walk as a truncated tail). Streaming
// both sides, memory is one chunk per side.
struct RepairReport {
  ArchiveMeta meta;
  std::size_t records_kept = 0;
  std::size_t chunks_kept = 0;
  std::size_t chunks_dropped = 0;
  std::vector<std::size_t> dropped_chunks;           // file-order chunk ordinals
  std::vector<std::size_t> dropped_record_ordinals;  // file-order record ordinals
  bool truncated_tail = false;
};
[[nodiscard]] bool repair_archive(const std::string& in_path, const std::string& out_path,
                                  RepairReport& report, std::string* error = nullptr);

// Inverse of merge_archives: cuts one archive into `num_shards` shards
// "<out_prefix>.shard<i>" along contiguous signing-query ranges (the
// same leading-heavy plan exec::static_chunks uses, so split and
// sharded capture agree on shard boundaries). Each shard's indices are
// re-based to start at 0 and its kFlagMerged bit is cleared, so for a
// query-ordered archive merge_archives(split_archive(A)) reproduces A's
// record stream exactly. num_shards is capped at the query count.
// `out_paths`, when non-null, receives the shard files written.
[[nodiscard]] bool split_archive(const std::string& in_path, const std::string& out_prefix,
                                 std::size_t num_shards,
                                 std::vector<std::string>* out_paths = nullptr,
                                 std::string* error = nullptr);

}  // namespace fd::tracestore
