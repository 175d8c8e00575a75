// Trace-archive throughput: write and stream-read bandwidth of the
// .fdtrace format, a one-shard merge (what a single-shard sharded
// capture pays after its capture), in-memory CPA on one slot of the
// same seeded campaign, the per-query capture cost at
// FALCON-512 (sign + gated windows + trace synthesis + archive append)
// and at FALCON-16 (paper16's shape), and the kernels under it: signing
// under the recorder, one query's unit normals, the ChaCha20 keystream
// of the trace noise, one query's synthesis alone, and the chunk CRC32;
// then the attack side of paper16's shape: the demux of a FALCON-16,
// 24k-query archive into slot matrices, and the exponent tie-break at
// 24k traces.
//
//   ./bench_tracestore [logn] [num_traces] [--json <path>]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "attack/slot_matrix.h"
#include "attack/streaming_cpa.h"
#include "bench_harness.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/ziggurat.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"
#include "sca/capture.h"
#include "sca/device.h"
#include "tracestore/archive.h"

using namespace fd;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double file_mib(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return 0.0;
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fclose(f);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("tracestore", argc, argv);
  const unsigned logn = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 5;
  const std::size_t num_traces = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 600;
  const char* path = "bench_tracestore.fdtrace";
  char params[64];
  std::snprintf(params, sizeof params, "logn=%u traces=%zu", logn, num_traces);

  ChaCha20Prng rng(0xA2C417);
  const auto kp = falcon::keygen(logn, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = num_traces;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0xA2C417;

  std::printf("== tracestore throughput (logn=%u, %zu queries x %zu slots) ==\n", logn,
              num_traces, kp.sk.params.n >> 1);

  // Write path: victim signing dominates, so also report the pure
  // serialization share by re-writing the loaded records.
  auto t0 = Clock::now();
  const auto capture = sca::run_campaign_to_archive(kp.sk, cfg, path);
  const double capture_s = seconds_since(t0);
  if (!capture.ok) {
    std::fprintf(stderr, "capture failed: %s\n", capture.error.c_str());
    return 1;
  }
  const double mib = file_mib(path);
  std::printf("capture+write  %8.3f s  (%zu records, %.1f MiB, %.1f MiB/s incl. signing)\n",
              capture_s, capture.records, mib, mib / capture_s);
  harness.report("capture_write", params, capture_s * 1e3, mib / capture_s, "MiB/s");

  tracestore::ArchiveReader reader;
  if (!reader.open(path)) {
    std::fprintf(stderr, "open failed: %s\n", reader.error().c_str());
    return 1;
  }
  std::vector<tracestore::TraceRecord> all;
  t0 = Clock::now();
  while (reader.next_batch(all, 1024) > 0) {
  }
  const double read_s = seconds_since(t0);
  std::printf("stream read    %8.3f s  (%.1f MiB/s, max resident %zu records/chunk)\n",
              read_s, mib / read_s, reader.max_resident_records());
  harness.report("stream_read", params, read_s * 1e3, mib / read_s, "MiB/s");

  t0 = Clock::now();
  {
    tracestore::ArchiveWriter rewriter;
    if (!rewriter.open("bench_tracestore_rw.fdtrace", reader.meta())) return 1;
    for (const auto& rec : all) {
      if (!rewriter.append(rec)) return 1;
    }
    if (!rewriter.close()) return 1;
  }
  const double write_s = seconds_since(t0);
  std::printf("pure write     %8.3f s  (%.1f MiB/s)\n", write_s, mib / write_s);
  harness.report("pure_write", params, write_s * 1e3, mib / write_s, "MiB/s");
  all.clear();
  all.shrink_to_fit();

  t0 = Clock::now();
  {
    const std::string inputs[1] = {path};
    std::string error;
    if (!tracestore::merge_archives(inputs, "bench_tracestore_merged.fdtrace", &error)) {
      std::fprintf(stderr, "merge failed: %s\n", error.c_str());
      return 1;
    }
  }
  const double merge_s = seconds_since(t0);
  std::printf("merge 1 shard  %8.3f s  (%.1f MiB/s)\n", merge_s, mib / merge_s);
  harness.report("merge_1shard", params, merge_s * 1e3, mib / merge_s, "MiB/s");
  std::remove("bench_tracestore_merged.fdtrace");

  // Exponent-phase CPA on one slot, in memory.
  constexpr std::size_t kCpaSlot = 1;
  attack::StreamingCpaSpec spec;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const attack::KnownOperand& k) {
    return attack::hyp_exponent(guess, k);
  };

  t0 = Clock::now();
  const auto sets = sca::run_full_campaign(kp.sk, cfg);
  const double recapture_s = seconds_since(t0);
  t0 = Clock::now();
  const auto inmem = attack::run_cpa_inmemory(sets[kCpaSlot], spec);
  const double cpa_mem_s = seconds_since(t0);

  std::printf("CPA in-memory  %8.3f s  (+%.3f s to re-run the victim; top guess %u)\n",
              cpa_mem_s, recapture_s, spec.guesses[inmem.ranking()[0]]);
  harness.report("cpa_inmemory", params, cpa_mem_s * 1e3,
                 static_cast<double>(inmem.num_traces()) / cpa_mem_s, "traces/s");

  // Per-query capture cost at the paper's ring size, independent of the
  // logn argument: 256 windows synthesized and appended per query.
  {
    constexpr unsigned kCaptureLogn = 9;
    constexpr std::size_t kQueries = 16;
    ChaCha20Prng krng(0xA2C419);
    const auto kp9 = falcon::keygen(kCaptureLogn, krng);
    sca::CampaignConfig cfg9 = cfg;
    cfg9.num_traces = kQueries;
    t0 = Clock::now();
    const auto cap9 = sca::run_campaign_to_archive(kp9.sk, cfg9, path);
    const double cap9_s = seconds_since(t0);
    if (!cap9.ok) {
      std::fprintf(stderr, "capture failed: %s\n", cap9.error.c_str());
      return 1;
    }
    const double query_ms = cap9_s * 1e3 / kQueries;
    char params9[64];
    std::snprintf(params9, sizeof params9, "logn=%u queries=%zu", kCaptureLogn, kQueries);
    std::printf("capture/query  %8.3f ms (logn=%u, %zu queries, %zu records)\n", query_ms,
                kCaptureLogn, kQueries, cap9.records);
    harness.report("capture_query", params9, query_ms, 1e3 / query_ms, "queries/s");
    // The same run whole: kQueries capture queries, signing plus
    // synthesis (and the appends), above the gate's 1 ms floor.
    harness.report("capture_query_logn9", params9, cap9_s * 1e3, 1e3 / query_ms, "queries/s");

    // The victim alone under the capture recorder: kQueries runs of the
    // capture signer (falcon::sign_capture, stopping after the recorded
    // windows), no synthesis, no archive.
    {
      sca::LastWindowRecorder recorder(kp9.sk.params.n >> 1);
      ChaCha20Prng victim_rng(0xA2C41E);
      t0 = Clock::now();
      for (std::size_t q = 0; q < kQueries; ++q) {
        recorder.start_run();
        fpr::ScopedLeakageSink scope(&recorder);
        (void)falcon::sign_capture(kp9.sk, "sign probe " + std::to_string(q), victim_rng,
                                   cfg9.masked);
      }
      const double sign_ms = seconds_since(t0) * 1e3;
      std::printf("sign/query     %8.3f ms (logn=%u, %zu queries, capture signer)\n",
                  sign_ms / kQueries, kCaptureLogn, kQueries);
      harness.report("sign_query", params9, sign_ms, kQueries * 1e3 / sign_ms, "queries/s");
    }

    // One query's windows (recorded once), synthesized kSynthQueries
    // times: the synthesis layer alone, no signing, no archive.
    constexpr std::size_t kSynthQueries = 8;
    const std::size_t hn = kp9.sk.params.n >> 1;
    sca::LastWindowRecorder recorder(hn);
    {
      ChaCha20Prng victim_rng(0xA2C41A);
      recorder.start_run();
      fpr::ScopedLeakageSink scope(&recorder);
      (void)falcon::sign(kp9.sk, "synth probe", victim_rng);
    }
    sca::EmDeviceModel device(cfg9.device, 0xA2C41B);
    std::vector<float> samples;
    std::size_t noise_samples = 0;
    t0 = Clock::now();
    for (std::size_t q = 0; q < kSynthQueries; ++q) {
      for (std::size_t s = 0; s < hn; ++s) {
        device.synthesize_into(recorder.window(s), samples);
        noise_samples += samples.size();
      }
    }
    const double synth_ms = seconds_since(t0) * 1e3 / kSynthQueries;
    std::snprintf(params9, sizeof params9, "logn=%u windows=%zu", kCaptureLogn, hn);
    std::printf("synth/query    %8.3f ms (logn=%u, %zu windows)\n", synth_ms, kCaptureLogn, hn);
    harness.report("synth_query", params9, synth_ms * kSynthQueries,
                   1e3 / synth_ms, "queries/s");

    // One query's unit normals, drawn kNormalPasses times: the
    // ziggurat and its keystream, no window arithmetic.
    constexpr std::size_t kNormalPasses = 64;
    std::vector<double> normals(noise_samples / kSynthQueries);
    ChaCha20Prng nrng(std::uint64_t{0xA2C420});
    t0 = Clock::now();
    for (std::size_t i = 0; i < kNormalPasses; ++i) fill_normals(nrng, normals);
    const double normals_ms = seconds_since(t0) * 1e3;
    char params_n[64];
    std::snprintf(params_n, sizeof params_n, "normals=%zu passes=%zu", normals.size(),
                  kNormalPasses);
    std::printf("normals/query  %8.3f ms (%zu unit normals)\n", normals_ms / kNormalPasses,
                normals.size());
    harness.report("device_normals", params_n, normals_ms,
                   static_cast<double>(normals.size() * kNormalPasses) / normals_ms / 1e3,
                   "Mnormals/s");

    // One query's noise keystream (8 bytes per unit normal on the
    // ziggurat's fast path), drawn kKeystreamPasses times into the same
    // buffer.
    constexpr std::size_t kKeystreamPasses = 32;
    std::vector<std::uint8_t> keystream(noise_samples / kSynthQueries * 8);
    ChaCha20Prng ks(std::uint64_t{0xA2C41C});
    t0 = Clock::now();
    for (std::size_t i = 0; i < kKeystreamPasses; ++i) ks.fill(keystream);
    const double ks_ms = seconds_since(t0) * 1e3;
    const double ks_gbps =
        static_cast<double>(keystream.size() * kKeystreamPasses) / ks_ms / 1e6;
    char params_ks[64];
    std::snprintf(params_ks, sizeof params_ks, "bytes=%zu passes=%zu", keystream.size(),
                  kKeystreamPasses);
    std::printf("keystream      %8.3f ms (%zu x %zu B, %.2f GB/s)\n", ks_ms, kKeystreamPasses,
                keystream.size(), ks_gbps);
    harness.report("keystream", params_ks, ks_ms, ks_gbps, "GB/s");
  }

  // paper16's capture shape: FALCON-16 queries at sigma 12 to an
  // archive, where signing and hashing outweigh the 8 windows per query.
  {
    constexpr unsigned kLogn = 4;
    constexpr std::size_t kQueries = 256;
    ChaCha20Prng krng(0xA2C41F);
    const auto kp4 = falcon::keygen(kLogn, krng);
    sca::CampaignConfig cfg4;
    cfg4.num_traces = kQueries;
    cfg4.device.noise_sigma = 12.0;
    cfg4.seed = 0xA2C41F;
    t0 = Clock::now();
    const auto cap4 = sca::run_campaign_to_archive(kp4.sk, cfg4, path);
    const double cap4_ms = seconds_since(t0) * 1e3;
    if (!cap4.ok) {
      std::fprintf(stderr, "capture failed: %s\n", cap4.error.c_str());
      return 1;
    }
    char params4[64];
    std::snprintf(params4, sizeof params4, "logn=%u queries=%zu", kLogn, kQueries);
    std::printf("capture/query  %8.3f ms (logn=%u, %zu queries, %zu records)\n",
                cap4_ms / kQueries, kLogn, kQueries, cap4.records);
    harness.report("capture_query_logn4", params4, cap4_ms, kQueries * 1e3 / cap4_ms,
                   "queries/s");
  }

  // paper16's re-attack shape: a FALCON-16 archive of 24k queries at
  // sigma 12, demuxed ungated into its 8 slot matrices (one scan), then the
  // exponent tie-break of one component over all 24k traces.
  {
    constexpr unsigned kLogn = 4;
    constexpr std::size_t kQueries = 24000;
    ChaCha20Prng krng(0xA2C420);
    const auto kp4 = falcon::keygen(kLogn, krng);
    sca::CampaignConfig cfg4;
    cfg4.num_traces = kQueries;
    cfg4.device.noise_sigma = 12.0;
    cfg4.seed = 0xA2C420;
    const auto cap4 = sca::run_campaign_to_archive(kp4.sk, cfg4, path);
    tracestore::ArchiveReader demux_reader;
    if (!cap4.ok || !demux_reader.open(path)) {
      std::fprintf(stderr, "paper16 archive failed: %s\n", cap4.error.c_str());
      return 1;
    }
    const std::size_t hn = kp4.sk.params.n >> 1;
    std::vector<std::size_t> slots(hn);
    for (std::size_t s = 0; s < hn; ++s) slots[s] = s;
    std::vector<attack::SlotMatrix> matrices;
    std::string error;
    t0 = Clock::now();
    if (!attack::demux_slots(demux_reader, slots, matrices, /*whole_windows=*/false, &error)) {
      std::fprintf(stderr, "demux failed: %s\n", error.c_str());
      return 1;
    }
    const double demux_ms = seconds_since(t0) * 1e3;
    std::size_t bytes = 0;
    for (const auto& m : matrices) bytes += m.resident_bytes();
    const double resident_mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
    char params_demux[64];
    std::snprintf(params_demux, sizeof params_demux, "logn=%u queries=%zu", kLogn, kQueries);
    std::printf("demux          %8.3f ms (logn=%u, %zu records, %.1f MiB resident)\n", demux_ms,
                kLogn, cap4.records, resident_mib);
    harness.report("demux_logn4", params_demux, demux_ms, resident_mib / demux_ms * 1e3,
                   "MiB/s");

    // The alias class of a window of eight exponents, matched kPasses
    // times against slot 0's real part.
    constexpr std::size_t kTies = 8;
    constexpr std::size_t kPasses = 8;
    const attack::ComponentDataset ds = attack::component_dataset(matrices[0], false);
    std::vector<attack::StreamingScan::Scored> ties;
    for (std::uint32_t e = 1024; e < 1024 + kTies; ++e) ties.push_back({e, 0.0});
    std::uint32_t pick = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < kPasses; ++i) {
      pick = attack::resolve_exponent_ties(ds, ties, ties[0].guess, 1029);
    }
    const double ties_ms = seconds_since(t0) * 1e3;
    char params_ties[64];
    std::snprintf(params_ties, sizeof params_ties, "traces=%zu ties=%zu passes=%zu",
                  ds.num_traces, kTies, kPasses);
    std::printf("exponent ties  %8.3f ms (%zu traces, %zu ties, %zu passes, pick %u)\n", ties_ms,
                ds.num_traces, kTies, kPasses, pick);
    harness.report("exponent_ties", params_ties, ties_ms,
                   static_cast<double>(ds.num_traces * kPasses) / ties_ms, "traces/ms");
  }

  // Chunk CRC32 over one 64 KiB payload, repeated: 32 MiB per timing.
  {
    constexpr std::size_t kChunkBytes = 64 * 1024;
    constexpr std::size_t kPasses = 512;
    std::vector<std::uint8_t> chunk(kChunkBytes);
    ChaCha20Prng(std::uint64_t{0xA2C41D}).fill(chunk);
    std::uint32_t crc = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < kPasses; ++i) crc = tracestore::crc32(chunk, crc);
    const double crc_ms = seconds_since(t0) * 1e3;
    const double gbps = static_cast<double>(kChunkBytes * kPasses) / crc_ms / 1e6;
    char params_crc[64];
    std::snprintf(params_crc, sizeof params_crc, "chunk=%zu passes=%zu", kChunkBytes, kPasses);
    std::printf("crc32          %8.3f ms (%.2f GB/s, crc %08x)\n", crc_ms, gbps, crc);
    harness.report("crc32", params_crc, crc_ms, gbps, "GB/s");
  }

  std::remove(path);
  std::remove("bench_tracestore_rw.fdtrace");
  return 0;
}
