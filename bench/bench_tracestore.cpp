// Trace-archive throughput: write and stream-read bandwidth of the
// .fdtrace format, a one-shard merge (what a single-shard sharded
// capture pays after its capture), streamed-CPA (disk) vs in-memory CPA
// wall time on the same seeded campaign -- the cost of
// capture-once/attack-many -- and the per-query capture cost at
// FALCON-512 (sign + gated windows + trace synthesis + archive append).
//
//   ./bench_tracestore [logn] [num_traces] [--json <path>]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "attack/streaming_cpa.h"
#include "bench_harness.h"
#include "bench_util.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"
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

  // Exponent-phase CPA on one slot: streamed from disk vs in memory.
  attack::StreamingCpaSpec spec;
  spec.slot = 1;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const attack::KnownOperand& k) {
    return attack::hyp_exponent(guess, k);
  };

  t0 = Clock::now();
  const auto streamed = attack::run_cpa_streaming(reader, spec);
  const double cpa_stream_s = seconds_since(t0);

  t0 = Clock::now();
  const auto sets = sca::run_full_campaign(kp.sk, cfg);
  const double recapture_s = seconds_since(t0);
  t0 = Clock::now();
  const auto inmem = attack::run_cpa_inmemory(sets[spec.slot], spec);
  const double cpa_mem_s = seconds_since(t0);

  std::printf("CPA streamed   %8.3f s  (archive already on disk)\n", cpa_stream_s);
  std::printf("CPA in-memory  %8.3f s  (+%.3f s to re-run the victim)\n", cpa_mem_s,
              recapture_s);
  harness.report("cpa_streamed", params, cpa_stream_s * 1e3,
                 static_cast<double>(streamed.num_traces()) / cpa_stream_s, "traces/s");
  harness.report("cpa_inmemory", params, cpa_mem_s * 1e3,
                 static_cast<double>(inmem.num_traces()) / cpa_mem_s, "traces/s");
  std::printf("rankings match %s  (top guess %u vs %u)\n",
              streamed.ranking() == inmem.ranking() ? "yes" : "NO",
              spec.guesses[streamed.ranking()[0]], spec.guesses[inmem.ranking()[0]]);

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
  }

  std::remove(path);
  std::remove("bench_tracestore_rw.fdtrace");
  return 0;
}
