// Trace-archive format tests: byte-exact roundtrip, header gating,
// damage recovery (corrupt chunks, truncated tails), shard merging, and
// the bounded-memory reading contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tracestore/archive.h"

namespace fd::tracestore {
namespace {

constexpr std::size_t kSamples = 10;
constexpr std::size_t kTracesPerChunk = 8;

ArchiveMeta small_meta() {
  ArchiveMeta m;
  m.logn = 4;
  m.row = 0;
  m.num_slots = 8;
  m.samples_per_trace = kSamples;
  m.traces_per_chunk = kTracesPerChunk;
  m.alpha = 1.0;
  m.noise_sigma = 2.0;
  m.seed = 0x5EED;
  return m;
}

TraceRecord make_record(std::uint32_t i, ChaCha20Prng& rng) {
  TraceRecord r;
  r.slot = i % 8;
  r.index = i / 8;
  r.known_re_bits = rng.next_u64();
  r.known_im_bits = rng.next_u64();
  r.samples.resize(kSamples);
  for (auto& s : r.samples) s = static_cast<float>(rng.gaussian());
  return r;
}

// Writes `count` deterministic records and returns them.
std::vector<TraceRecord> write_archive(const std::string& path, std::size_t count,
                                       std::uint64_t seed = 0xA7C41) {
  ChaCha20Prng rng(seed);
  std::vector<TraceRecord> recs;
  ArchiveWriter writer;
  EXPECT_TRUE(writer.open(path, small_meta())) << writer.error();
  for (std::size_t i = 0; i < count; ++i) {
    recs.push_back(make_record(static_cast<std::uint32_t>(i), rng));
    EXPECT_TRUE(writer.append(recs.back())) << writer.error();
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  return recs;
}

// In-place byte surgery on an archive file.
void patch_file(const std::string& path, long offset, std::uint8_t xor_mask) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ xor_mask, f);
  std::fclose(f);
}

void truncate_file(const std::string& path, long new_size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<char> bytes(static_cast<std::size_t>(new_size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Overwrites a little-endian u32 field of an archive file.
void patch_u32(const std::string& path, long offset, std::uint32_t v) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v >> 16),
                             static_cast<std::uint8_t>(v >> 24)};
  ASSERT_EQ(std::fwrite(b, 1, 4, f), 4U);
  std::fclose(f);
}

std::size_t chunk_offset(std::size_t chunk) {
  return kHeaderBytes + chunk * (kChunkHeaderBytes + kTracesPerChunk * (24 + 4 * kSamples));
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926U);
}

// Bytewise CRC32 reference (IEEE reflected polynomial), one bit per step.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(Crc32, SlicingMatchesBitwiseAtEveryLengthAndOffset) {
  ChaCha20Prng rng(std::uint64_t{0xC3C});
  std::vector<std::uint8_t> buf(1024 + 8);
  rng.fill(buf);
  for (std::size_t len = 0; len <= 1024; ++len) {
    ASSERT_EQ(crc32({buf.data(), len}), crc32_bitwise(buf.data(), len)) << "len " << len;
  }
  for (std::size_t off = 1; off < 8; ++off) {
    for (const std::size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 1024}) {
      ASSERT_EQ(crc32({buf.data() + off, len}), crc32_bitwise(buf.data() + off, len))
          << "offset " << off << " len " << len;
    }
  }
}

TEST(Crc32, EveryBodyMatchesBitwise) {
  // Each body this CPU runs (slicing-by-8 always) at every length
  // 0..4096 from every offset 0..15, on a chunk-sized buffer, and
  // chained through seeds across bodies.
  const auto bodies = detail::crc32_bodies();
  ASSERT_FALSE(bodies.empty());
  EXPECT_STREQ(bodies.front().name, "slicing8");
  ChaCha20Prng rng(std::uint64_t{0xC3E});
  std::vector<std::uint8_t> buf(75 * 1024);
  rng.fill(buf);
  for (std::size_t off = 0; off < 16; ++off) {
    // want[len] = bitwise CRC of buf[off, off + len), one running pass.
    std::vector<std::uint32_t> want(4097);
    std::uint32_t c = 0xFFFFFFFFU;
    want[0] = 0;
    for (std::size_t len = 1; len <= 4096; ++len) {
      c ^= buf[off + len - 1];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      want[len] = c ^ 0xFFFFFFFFU;
    }
    for (const auto& body : bodies) {
      for (std::size_t len = 0; len <= 4096; ++len) {
        ASSERT_EQ(body.crc32({buf.data() + off, len}, 0), want[len])
            << body.name << " offset " << off << " len " << len;
      }
    }
  }
  const std::uint32_t whole = crc32_bitwise(buf.data(), buf.size());
  for (const auto& head : bodies) {
    EXPECT_EQ(head.crc32(buf, 0), whole) << head.name;
    for (const auto& tail : bodies) {
      for (const std::size_t cut : {1, 15, 64, 65, 4099, 40000, 76799}) {
        const std::uint32_t h = head.crc32({buf.data(), cut}, 0);
        EXPECT_EQ(tail.crc32({buf.data() + cut, buf.size() - cut}, h), whole)
            << head.name << " then " << tail.name << " cut " << cut;
      }
      EXPECT_EQ(tail.crc32({buf.data(), 0}, 0x12345678U), 0x12345678U) << tail.name;
    }
  }
}

TEST(Crc32, ChainedSeedEqualsOnePass) {
  ChaCha20Prng rng(std::uint64_t{0xC3D});
  std::vector<std::uint8_t> buf(777);
  rng.fill(buf);
  const std::uint32_t whole = crc32(buf);
  for (const std::size_t cut : {0, 1, 5, 8, 13, 64, 400, 776, 777}) {
    const std::uint32_t head = crc32({buf.data(), cut});
    EXPECT_EQ(crc32({buf.data() + cut, buf.size() - cut}, head), whole) << "cut " << cut;
    EXPECT_EQ(crc32({buf.data() + cut, buf.size() - cut}, head),
              crc32_bitwise(buf.data() + cut, buf.size() - cut, head));
  }
  EXPECT_EQ(crc32({buf.data(), 0}, 0x12345678U), 0x12345678U);
}

TEST(Archive, RoundTripIsExact) {
  TempFile tmp("ts_roundtrip.fdtrace");
  const auto recs = write_archive(tmp.path, 20);  // 2 full chunks + partial

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path)) << reader.error();
  EXPECT_EQ(reader.meta().logn, 4U);
  EXPECT_EQ(reader.meta().num_slots, 8U);
  EXPECT_EQ(reader.meta().seed, 0x5EEDULL);

  TraceRecord rec;
  for (const auto& want : recs) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.slot, want.slot);
    EXPECT_EQ(rec.index, want.index);
    EXPECT_EQ(rec.known_re_bits, want.known_re_bits);
    EXPECT_EQ(rec.known_im_bits, want.known_im_bits);
    ASSERT_EQ(rec.samples.size(), want.samples.size());
    for (std::size_t s = 0; s < kSamples; ++s) {
      // Bit-exact: floats survive the container unchanged.
      EXPECT_EQ(rec.samples[s], want.samples[s]);
    }
  }
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.stats().records_read, recs.size());
  EXPECT_EQ(reader.stats().chunks_ok, 3U);
  EXPECT_TRUE(reader.stats().clean());
}

TEST(Archive, RewindReplaysFromTheTop) {
  TempFile tmp("ts_rewind.fdtrace");
  write_archive(tmp.path, 11);
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  while (reader.next(rec)) {
  }
  reader.rewind();
  std::size_t again = 0;
  while (reader.next(rec)) ++again;
  EXPECT_EQ(again, 11U);
}

TEST(Archive, ReaderReusesTheCallersSampleBuffer) {
  TempFile tmp("ts_reuse.fdtrace");
  const auto recs = write_archive(tmp.path, 20);
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  const float* buffer = rec.samples.data();
  std::size_t n = 1;
  while (reader.next(rec)) {
    ASSERT_EQ(rec.samples.data(), buffer) << "record " << n;  // decoded in place
    EXPECT_EQ(rec.samples, recs[n].samples);
    ++n;
  }
  EXPECT_EQ(n, recs.size());
  EXPECT_EQ(reader.max_resident_records(), kTracesPerChunk);
}

// A header whose record size overflows 32 bits (samples_per_trace =
// 2^30) used to size a chunk buffer straight from the header and abort
// in std::bad_alloc; open() now refuses it, which `fd-tracedb verify`
// reports as unreadable (exit 2).
TEST(Archive, OverflowingRecordGeometryRejectedAtOpen) {
  TempFile tmp("ts_geom.fdtrace");
  write_archive(tmp.path, 4);
  patch_u32(tmp.path, 28, 1U << 30);  // samples_per_trace
  ArchiveReader reader;
  EXPECT_FALSE(reader.open(tmp.path));
  EXPECT_NE(reader.error().find("overflows"), std::string::npos) << reader.error();
  VerifyReport report;
  std::string error;
  EXPECT_FALSE(verify_archive(tmp.path, report, &error));

  ArchiveMeta m = small_meta();
  m.samples_per_trace = 1U << 30;
  ArchiveWriter writer;
  EXPECT_FALSE(writer.open(tmp.path + ".w", m));
  std::remove((tmp.path + ".w").c_str());
}

// Geometry that fits but a chunk that claims more payload than the file
// holds: the length is checked against the bytes left before any buffer
// is sized, so the lie reads as a truncated tail.
TEST(Archive, ChunkLongerThanTheFileIsATruncatedTail) {
  TempFile tmp("ts_chunklie.fdtrace");
  write_archive(tmp.path, 20);  // chunks of 8, 8, 4
  patch_u32(tmp.path, 28, (1U << 30) - 16);    // samples_per_trace: ~4 GiB records
  patch_u32(tmp.path, 32, 0xFFFFFFFFU);        // traces_per_chunk
  patch_u32(tmp.path, static_cast<long>(kHeaderBytes) + 4, 0xFFFFFFF0U);  // record_count
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path)) << reader.error();
  TraceRecord rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_TRUE(reader.stats().truncated_tail);
  VerifyReport report;
  ASSERT_TRUE(verify_archive(tmp.path, report));
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.records, 0U);
}

TEST(Archive, RejectsBadMagic) {
  TempFile tmp("ts_badmagic.fdtrace");
  write_archive(tmp.path, 4);
  patch_file(tmp.path, 0, 0xFF);
  ArchiveReader reader;
  EXPECT_FALSE(reader.open(tmp.path));
  EXPECT_NE(reader.error().find("magic"), std::string::npos);
}

TEST(Archive, RejectsUnknownVersion) {
  TempFile tmp("ts_badver.fdtrace");
  write_archive(tmp.path, 4);
  patch_file(tmp.path, 8, 0x40);  // version u32 lives at offset 8
  ArchiveReader reader;
  EXPECT_FALSE(reader.open(tmp.path));
  EXPECT_NE(reader.error().find("version"), std::string::npos);
}

TEST(Archive, CorruptedChunkIsSkippedNotFatal) {
  TempFile tmp("ts_corrupt.fdtrace");
  write_archive(tmp.path, 3 * kTracesPerChunk);
  // Flip one payload byte in the middle chunk.
  patch_file(tmp.path, static_cast<long>(chunk_offset(1) + kChunkHeaderBytes + 5), 0x01);

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::vector<std::uint32_t> indices;
  while (reader.next(rec)) indices.push_back(rec.index * 8 + rec.slot);
  // Chunks 0 and 2 survive; chunk 1's records are gone but nothing dies.
  EXPECT_EQ(indices.size(), 2 * kTracesPerChunk);
  EXPECT_EQ(indices.front(), 0U);
  EXPECT_EQ(indices.back(), 3 * kTracesPerChunk - 1);
  EXPECT_EQ(reader.stats().chunks_ok, 2U);
  EXPECT_EQ(reader.stats().chunks_corrupt, 1U);
  EXPECT_FALSE(reader.stats().truncated_tail);
}

TEST(Archive, TruncatedTailEndsStreamCleanly) {
  TempFile tmp("ts_trunc.fdtrace");
  write_archive(tmp.path, 3 * kTracesPerChunk);
  // Cut the file in the middle of chunk 2's payload.
  truncate_file(tmp.path, static_cast<long>(chunk_offset(2) + kChunkHeaderBytes + 30));

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::size_t n = 0;
  while (reader.next(rec)) ++n;
  EXPECT_EQ(n, 2 * kTracesPerChunk);
  EXPECT_TRUE(reader.stats().truncated_tail);
  EXPECT_EQ(reader.stats().chunks_corrupt, 0U);
}

TEST(Archive, TruncatedChunkHeaderEndsStreamCleanly) {
  TempFile tmp("ts_trunchdr.fdtrace");
  write_archive(tmp.path, 2 * kTracesPerChunk);
  truncate_file(tmp.path, static_cast<long>(chunk_offset(1) + 7));
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::size_t n = 0;
  while (reader.next(rec)) ++n;
  EXPECT_EQ(n, kTracesPerChunk);
  EXPECT_TRUE(reader.stats().truncated_tail);
}

TEST(Archive, VerifyReportsDamage) {
  TempFile tmp("ts_verify.fdtrace");
  write_archive(tmp.path, 2 * kTracesPerChunk);

  VerifyReport report;
  ASSERT_TRUE(verify_archive(tmp.path, report));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records, 2 * kTracesPerChunk);

  patch_file(tmp.path, static_cast<long>(chunk_offset(0) + kChunkHeaderBytes + 2), 0x80);
  ASSERT_TRUE(verify_archive(tmp.path, report));
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.chunks_corrupt, 1U);
  EXPECT_EQ(report.records, kTracesPerChunk);
}

TEST(Archive, WriterRejectsRaggedRecords) {
  TempFile tmp("ts_ragged.fdtrace");
  ArchiveWriter writer;
  ASSERT_TRUE(writer.open(tmp.path, small_meta()));
  TraceRecord r;
  r.samples.resize(kSamples + 1);
  EXPECT_FALSE(writer.append(r));
  EXPECT_NE(writer.error().find("samples"), std::string::npos);
}

TEST(Archive, BatchReadingIsChunkBounded) {
  TempFile small("ts_small.fdtrace");
  TempFile large("ts_large.fdtrace");
  write_archive(small.path, 2 * kTracesPerChunk);
  write_archive(large.path, 10 * kTracesPerChunk);

  std::size_t residents[2];
  const std::string* paths[2] = {&small.path, &large.path};
  for (int i = 0; i < 2; ++i) {
    ArchiveReader reader;
    ASSERT_TRUE(reader.open(*paths[i]));
    std::vector<TraceRecord> batch;
    std::size_t total = 0;
    for (;;) {
      batch.clear();
      const std::size_t got = reader.next_batch(batch, 3);
      if (got == 0) break;
      EXPECT_LE(got, 3U);
      total += got;
    }
    EXPECT_EQ(total, (i == 0 ? 2 : 10) * kTracesPerChunk);
    residents[i] = reader.max_resident_records();
    EXPECT_LE(residents[i], kTracesPerChunk);
  }
  // Peak decoded state is the chunk size, independent of archive length.
  EXPECT_EQ(residents[0], residents[1]);
}

TEST(Merge, ShardCountsAddUpAndIndicesRebase) {
  TempFile a("ts_shard_a.fdtrace");
  TempFile b("ts_shard_b.fdtrace");
  TempFile out("ts_merged.fdtrace");
  write_archive(a.path, 24, /*seed=*/1);  // queries 0..2 over 8 slots
  write_archive(b.path, 16, /*seed=*/2);  // queries 0..1 over 8 slots

  const std::string inputs[2] = {a.path, b.path};
  std::string error;
  ASSERT_TRUE(merge_archives(inputs, out.path, &error)) << error;

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(out.path));
  EXPECT_NE(reader.meta().flags & kFlagMerged, 0U);
  TraceRecord rec;
  std::size_t n = 0;
  std::uint32_t max_index = 0;
  while (reader.next(rec)) {
    ++n;
    max_index = std::max(max_index, rec.index);
  }
  EXPECT_EQ(n, 24U + 16U);
  // Shard A had queries 0..2, so shard B's queries became 3..4.
  EXPECT_EQ(max_index, 4U);
  EXPECT_TRUE(reader.stats().clean());
}

TEST(Merge, SingleShardCopiesTheRecordStream) {
  TempFile a("ts_one_shard.fdtrace");
  TempFile out("ts_one_merged.fdtrace");
  const auto recs = write_archive(a.path, 21);
  const std::string inputs[1] = {a.path};
  std::string error;
  ASSERT_TRUE(merge_archives(inputs, out.path, &error)) << error;
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(out.path));
  EXPECT_NE(reader.meta().flags & kFlagMerged, 0U);
  TraceRecord rec;
  for (const auto& want : recs) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.slot, want.slot);
    EXPECT_EQ(rec.index, want.index);
    EXPECT_EQ(rec.known_re_bits, want.known_re_bits);
    EXPECT_EQ(rec.samples, want.samples);
  }
  EXPECT_FALSE(reader.next(rec));
}

TEST(Merge, IncompatibleShardsRejected) {
  TempFile a("ts_inc_a.fdtrace");
  TempFile b("ts_inc_b.fdtrace");
  TempFile out("ts_inc_out.fdtrace");
  write_archive(a.path, 8);
  {
    ArchiveMeta other = small_meta();
    other.samples_per_trace = kSamples + 2;
    ArchiveWriter writer;
    ASSERT_TRUE(writer.open(b.path, other));
    TraceRecord r;
    r.samples.resize(kSamples + 2);
    ASSERT_TRUE(writer.append(r));
    ASSERT_TRUE(writer.close());
  }
  const std::string inputs[2] = {a.path, b.path};
  std::string error;
  EXPECT_FALSE(merge_archives(inputs, out.path, &error));
  EXPECT_NE(error.find("incompatible"), std::string::npos);
}

// Reads every record of an archive in stream order.
std::vector<TraceRecord> read_all(const std::string& path) {
  std::vector<TraceRecord> recs;
  ArchiveReader reader;
  EXPECT_TRUE(reader.open(path)) << reader.error();
  TraceRecord rec;
  while (reader.next(rec)) recs.push_back(rec);
  EXPECT_TRUE(reader.stats().clean());
  return recs;
}

void expect_same_records(const std::vector<TraceRecord>& a, const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slot, b[i].slot) << "record " << i;
    EXPECT_EQ(a[i].index, b[i].index) << "record " << i;
    EXPECT_EQ(a[i].known_re_bits, b[i].known_re_bits) << "record " << i;
    EXPECT_EQ(a[i].known_im_bits, b[i].known_im_bits) << "record " << i;
    EXPECT_EQ(a[i].samples, b[i].samples) << "record " << i;
  }
}

TEST(Split, ContiguousQueryRangesRebasedToZero) {
  TempFile in("ts_split_in.fdtrace");
  write_archive(in.path, 56, /*seed=*/7);  // queries 0..6 over 8 slots
  TempFile s0("ts_split_out.shard0"), s1("ts_split_out.shard1"), s2("ts_split_out.shard2");

  std::string error;
  std::vector<std::string> paths;
  ASSERT_TRUE(split_archive(in.path, "ts_split_out", 3, &paths, &error)) << error;
  ASSERT_EQ(paths.size(), 3U);

  // 7 queries over 3 shards: leading-heavy plan 3 + 2 + 2.
  const std::size_t expected_queries[3] = {3, 2, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto recs = read_all(paths[i]);
    EXPECT_EQ(recs.size(), expected_queries[i] * 8) << "shard " << i;
    std::uint32_t max_index = 0;
    for (const auto& r : recs) max_index = std::max(max_index, r.index);
    EXPECT_EQ(max_index + 1, expected_queries[i]) << "shard " << i;  // re-based to 0
    ArchiveReader reader;
    ASSERT_TRUE(reader.open(paths[i]));
    EXPECT_EQ(reader.meta().flags & kFlagMerged, 0U);
  }
}

TEST(Split, MergeOfSplitReproducesTheArchive) {
  TempFile in("ts_roundtrip_in.fdtrace");
  TempFile out("ts_roundtrip_out.fdtrace");
  write_archive(in.path, 40, /*seed=*/11);  // queries 0..4 over 8 slots
  TempFile s0("ts_roundtrip.shard0"), s1("ts_roundtrip.shard1"), s2("ts_roundtrip.shard2");

  std::string error;
  std::vector<std::string> paths;
  ASSERT_TRUE(split_archive(in.path, "ts_roundtrip", 3, &paths, &error)) << error;
  ASSERT_TRUE(merge_archives(paths, out.path, &error)) << error;
  expect_same_records(read_all(out.path), read_all(in.path));
}

TEST(Split, ShardCountCappedAtQueries) {
  TempFile in("ts_split_cap.fdtrace");
  write_archive(in.path, 16, /*seed=*/13);  // only 2 queries
  TempFile s0("ts_split_cap_out.shard0"), s1("ts_split_cap_out.shard1");

  std::string error;
  std::vector<std::string> paths;
  ASSERT_TRUE(split_archive(in.path, "ts_split_cap_out", 9, &paths, &error)) << error;
  EXPECT_EQ(paths.size(), 2U);  // one shard per query, no empty shards
}

TEST(Split, EmptyArchiveRejected) {
  TempFile in("ts_split_empty.fdtrace");
  write_archive(in.path, 0);
  std::string error;
  EXPECT_FALSE(split_archive(in.path, "ts_split_empty_out", 2, nullptr, &error));
  EXPECT_NE(error.find("no records"), std::string::npos);
}

}  // namespace
}  // namespace fd::tracestore
