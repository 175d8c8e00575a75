// The exec engine's determinism contract, pinned.
//
// Mechanics first (pool lifecycle, backpressure, nested submission,
// chunk plans, seed splitting, job-graph ordering), then the
// end-to-end pins the rest of the repo builds on:
//   - sharded capture produces BYTE-identical merged archives at 1, 2,
//     and 7 workers (and with no pool at all);
//   - the parallel all-component attack returns results identical to
//     the serial loop at every worker count;
//   - the component fan-out (archive and in-memory) returns results
//     pinned to digests of the implementation it replaced, and the
//     archive fan-out over slot matrices equals, bit for bit, the
//     per-component TraceSet path (screen a copy, copy the columns,
//     attack) with the gate screening each requested slot once.
// Worker count must never leak into results; only the shard count (a
// config value, part of the experiment's identity) may.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/key_recovery.h"
#include "attack/parallel_attack.h"
#include "attack/quality.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "exec/job_graph.h"
#include "exec/parallel_for.h"
#include "exec/seed_split.h"
#include "exec/thread_pool.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

using namespace fd;

namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// --- ThreadPool mechanics --------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4U);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, BoundedQueueBackpressureDoesNotDeadlock) {
  exec::ThreadPool pool(2, /*queue_capacity=*/2);
  EXPECT_EQ(pool.queue_capacity(), 2U);
  std::atomic<int> count{0};
  // Far more tasks than capacity: submit must block-and-drain, not drop.
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedSubmitRunsInlineOnWorkers) {
  exec::ThreadPool pool(1, /*queue_capacity=*/1);
  std::atomic<bool> inner_ran{false};
  std::atomic<bool> was_on_worker{false};
  pool.submit([&] {
    was_on_worker.store(exec::ThreadPool::on_worker_thread());
    // With capacity 1 and the only worker busy right here, a queued
    // nested submit could never drain -- inline execution is the
    // deadlock-freedom guarantee.
    pool.submit([&] { inner_ran.store(true); });
  });
  pool.wait_idle();
  EXPECT_TRUE(was_on_worker.load());
  EXPECT_TRUE(inner_ran.load());
  EXPECT_FALSE(exec::ThreadPool::on_worker_thread());
}

// --- static chunk plans ----------------------------------------------------

TEST(StaticChunks, CoversRangeContiguouslyLeadingHeavy) {
  const auto plan = exec::static_chunks(10, 4);  // 3,3,2,2
  ASSERT_EQ(plan.size(), 4U);
  EXPECT_EQ(plan[0].size(), 3U);
  EXPECT_EQ(plan[1].size(), 3U);
  EXPECT_EQ(plan[2].size(), 2U);
  EXPECT_EQ(plan[3].size(), 2U);
  std::size_t next = 0;
  for (const auto& c : plan) {
    EXPECT_EQ(c.begin, next);
    next = c.end;
  }
  EXPECT_EQ(next, 10U);
}

TEST(StaticChunks, NeverMakesEmptyChunks) {
  EXPECT_EQ(exec::static_chunks(3, 8).size(), 3U);
  EXPECT_EQ(exec::static_chunks(0, 4).size(), 0U);
  EXPECT_EQ(exec::static_chunks(5, 0).size(), 1U);  // hint 0 -> one chunk
}

TEST(ParallelFor, VisitsEveryIndexOnceAtAnyWorkerCount) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::unique_ptr<exec::ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<exec::ThreadPool>(workers);
    std::vector<std::atomic<int>> hits(257);
    exec::parallel_for(pool.get(), hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, FirstExceptionInChunkOrderIsRethrown) {
  exec::ThreadPool pool(3);
  try {
    exec::parallel_for_chunks(&pool, 8, 8, [&](exec::ChunkRange r, std::size_t) {
      if (r.begin >= 2) throw std::runtime_error("chunk " + std::to_string(r.begin));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");  // index order, not completion order
  }
}

TEST(ParallelReduce, MergesInChunkIndexOrder) {
  exec::ThreadPool pool(4);
  // Non-commutative merge (string concatenation) exposes any ordering
  // violation immediately.
  const std::string serial = exec::parallel_reduce<std::string>(
      nullptr, 26, 7, std::string(),
      [](exec::ChunkRange r) {
        std::string s;
        for (std::size_t i = r.begin; i < r.end; ++i) s += static_cast<char>('a' + i);
        return s;
      },
      [](std::string acc, std::string part) { return acc + part; });
  const std::string parallel = exec::parallel_reduce<std::string>(
      &pool, 26, 7, std::string(),
      [](exec::ChunkRange r) {
        std::string s;
        for (std::size_t i = r.begin; i < r.end; ++i) s += static_cast<char>('a' + i);
        return s;
      },
      [](std::string acc, std::string part) { return acc + part; });
  EXPECT_EQ(serial, "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(parallel, serial);
}

// --- seed splitting --------------------------------------------------------

TEST(SeedSplit, LanesAreDistinctAndStable) {
  const std::uint64_t root = 0xDE40;
  EXPECT_EQ(exec::split_seed(root, 0), exec::split_seed(root, 0));
  std::vector<std::uint64_t> seen;
  for (std::uint64_t lane = 0; lane < 64; ++lane) {
    const std::uint64_t s = exec::split_seed(root, lane);
    EXPECT_NE(s, root) << "lane " << lane;  // lane 0 must not alias the root
    for (const auto prev : seen) EXPECT_NE(s, prev);
    seen.push_back(s);
  }
  // Different roots give different lane streams.
  EXPECT_NE(exec::split_seed(1, 0), exec::split_seed(2, 0));
}

// --- JobGraph --------------------------------------------------------------

TEST(JobGraph, RespectsDependenciesAndReportsInInsertionOrder) {
  exec::ThreadPool pool(2);
  exec::JobGraph graph;
  std::vector<int> order;
  std::mutex mu;
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const auto a = graph.add("a", [&] { record(0); });
  const auto b = graph.add("b", [&] { record(1); }, {a});
  const auto c = graph.add("c", [&] { record(2); }, {a});
  graph.add("d", [&] { record(3); }, {b, c});
  const auto reports = graph.run(&pool);
  ASSERT_EQ(reports.size(), 4U);
  EXPECT_EQ(reports[0].name, "a");
  EXPECT_EQ(reports[3].name, "d");
  for (const auto& r : reports) EXPECT_TRUE(r.ran);
  ASSERT_EQ(order.size(), 4U);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(JobGraph, FailureSkipsDownstreamAndRethrows) {
  exec::JobGraph graph;
  bool downstream_ran = false;
  const auto a = graph.add("boom", [] { throw std::runtime_error("boom"); });
  graph.add("after", [&] { downstream_ran = true; }, {a});
  EXPECT_THROW((void)graph.run(nullptr), std::runtime_error);
  EXPECT_FALSE(downstream_ran);
}

TEST(JobGraph, RejectsForwardDependencies) {
  exec::JobGraph graph;
  EXPECT_THROW(graph.add("bad", [] {}, {7}), std::invalid_argument);
}

// --- the determinism pins --------------------------------------------------

sca::ShardedCampaignConfig sharded_config(std::size_t shards) {
  sca::ShardedCampaignConfig cfg;
  cfg.base.num_traces = 90;
  cfg.base.device.noise_sigma = 2.0;
  cfg.base.seed = 0x5EED;
  cfg.num_shards = shards;
  return cfg;
}

TEST(ExecDeterminism, ShardedCaptureIsByteIdenticalAtAnyWorkerCount) {
  ChaCha20Prng rng("exec pin key");
  const auto kp = falcon::keygen(4, rng);

  // Serial reference: the same 3-shard plan, no pool.
  TempFile ref("exec_capture_ref.fdtrace");
  const auto ref_res = sca::run_campaign_sharded(kp.sk, sharded_config(3), ref.path, nullptr);
  ASSERT_TRUE(ref_res.ok) << ref_res.error;
  EXPECT_EQ(ref_res.queries, 90U);
  EXPECT_EQ(ref_res.shards, 3U);
  const std::string ref_bytes = read_file(ref.path);
  ASSERT_FALSE(ref_bytes.empty());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    exec::ThreadPool pool(workers);
    TempFile out("exec_capture_w" + std::to_string(workers) + ".fdtrace");
    const auto res = sca::run_campaign_sharded(kp.sk, sharded_config(3), out.path, &pool);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(read_file(out.path), ref_bytes) << workers << " workers";
  }
}

TEST(ExecDeterminism, ShardCountIsPartOfTheExperimentIdentity) {
  ChaCha20Prng rng("exec pin key");
  const auto kp = falcon::keygen(4, rng);
  TempFile a("exec_shards3.fdtrace");
  TempFile b("exec_shards5.fdtrace");
  ASSERT_TRUE(sca::run_campaign_sharded(kp.sk, sharded_config(3), a.path, nullptr).ok);
  ASSERT_TRUE(sca::run_campaign_sharded(kp.sk, sharded_config(5), b.path, nullptr).ok);
  // Different shard plans are different RNG trees: the data must differ.
  EXPECT_NE(read_file(a.path), read_file(b.path));
}

TEST(ExecDeterminism, ParallelComponentAttackMatchesSerialExactly) {
  ChaCha20Prng rng("exec attack pin");
  const auto kp = falcon::keygen(3, rng);

  sca::CampaignConfig camp;
  camp.num_traces = 350;
  camp.device.noise_sigma = 2.0;
  camp.seed = 0xA77;
  const auto sets = sca::run_full_campaign(kp.sk, camp);

  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0xA77;
  cfg.adversarial_random = 40;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(kp.sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };

  const auto serial = attack::attack_all_components_parallel(sets, config_for, nullptr);
  ASSERT_EQ(serial.size(), kp.sk.params.n);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    exec::ThreadPool pool(workers);
    const auto parallel = attack::attack_all_components_parallel(sets, config_for, &pool);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (std::size_t idx = 0; idx < serial.size(); ++idx) {
      EXPECT_EQ(parallel[idx].bits, serial[idx].bits)
          << workers << " workers, component " << idx;
      EXPECT_EQ(parallel[idx].sign, serial[idx].sign);
      EXPECT_EQ(parallel[idx].exponent, serial[idx].exponent);
      EXPECT_EQ(parallel[idx].x0, serial[idx].x0);
      EXPECT_EQ(parallel[idx].x1, serial[idx].x1);
    }
  }
}

TEST(ExecDeterminism, ArchiveAttackAndStreamingManyMatchSerial) {
  ChaCha20Prng rng("exec archive pin");
  const auto kp = falcon::keygen(3, rng);
  const std::size_t n = kp.sk.params.n;

  TempFile archive("exec_archive_pin.fdtrace");
  sca::CampaignConfig camp;
  camp.num_traces = 350;
  camp.device.noise_sigma = 2.0;
  camp.seed = 0xA78;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, camp, archive.path).ok);

  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0xA78;
  cfg.adversarial_random = 40;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(kp.sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };

  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::vector<attack::ComponentResult> serial, parallel;
  std::vector<std::size_t> acc_serial, acc_parallel;
  std::string error;
  ASSERT_TRUE(attack::attack_components_gated(archive.path, attack::QualityConfig{},
                                              config_for, nullptr, all, serial, acc_serial,
                                              nullptr, &error))
      << error;
  exec::ThreadPool pool(2);
  ASSERT_TRUE(attack::attack_components_gated(archive.path, attack::QualityConfig{},
                                              config_for, &pool, all, parallel, acc_parallel,
                                              nullptr, &error))
      << error;
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t idx = 0; idx < serial.size(); ++idx) {
    EXPECT_EQ(parallel[idx].bits, serial[idx].bits) << "component " << idx;
  }
  EXPECT_EQ(acc_parallel, acc_serial);
}

// --- component fan-out results pinned ---------------------------------------

// FNV-1a over everything a gated attack hands back for `components`:
// each component's decisions, its accepted-trace count (when given),
// and the aggregate gate report (when given).
std::uint64_t fan_out_digest(const std::vector<attack::ComponentResult>& results,
                             const std::vector<std::size_t>& components,
                             const std::vector<std::size_t>* accepted,
                             const attack::QualityReport* quality) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const std::size_t idx : components) {
    const attack::ComponentResult& r = results[idx];
    mix(r.bits);
    mix(r.sign ? 1 : 0);
    mix(r.exponent);
    mix(r.x0);
    mix(r.x1);
    if (accepted != nullptr) mix((*accepted)[idx]);
  }
  if (quality != nullptr) {
    mix(quality->total);
    mix(quality->accepted);
    mix(quality->rejected_saturated);
    mix(quality->rejected_energy);
    mix(quality->rejected_alignment);
    mix(quality->realigned);
  }
  return h;
}

TEST(ParallelAttack, ResultsPinnedToParent) {
  // A faulted, jittered FALCON-16 capture, so the gate rejects traces
  // on saturation, energy and alignment and realigns the rest. The
  // digests were computed with the earlier fan-out (a demux plus a
  // private copy of the slot per component, and a separate in-memory
  // loop); any change to what a component sees or decides moves them.
  // Re-recorded once for the per-query capture streams and ziggurat
  // noise of DESIGN.md section 25, after this fan-out reproduced the
  // old digests on an archive the earlier capture wrote.
  // Every case must match at no pool and at a 3-worker pool.
  ChaCha20Prng rng("parallel attack pin");
  const auto kp = falcon::keygen(4, rng);
  const std::size_t n = kp.sk.params.n;
  const std::size_t hn = n >> 1;

  TempFile archive("exec_fan_out_pin.fdtrace");
  sca::CampaignConfig camp;
  camp.num_traces = 300;
  camp.device.noise_sigma = 2.0;
  camp.device.jitter_max = 2;
  camp.seed = 0xFA2;
  camp.faults.desync_rate = 0.05;
  camp.faults.saturate_rate = 0.03;
  camp.faults.glitch_rate = 0.02;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, camp, archive.path).ok);

  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0xFA2;
  cfg.adversarial_random = 40;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(kp.sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };

  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  const std::vector<std::size_t> subset = {0, 3, 11};

  struct Case {
    bool gate;
    const std::vector<std::size_t>* components;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {false, &subset, 0xC39BE224922A6766ULL},
      {false, &all, 0x4BB81092ACEF21BCULL},
      {true, &subset, 0x841B459828904734ULL},
      {true, &all, 0x8505A1A2A773CB68ULL},
  };
  exec::ThreadPool pool(3);
  for (const Case& c : cases) {
    attack::QualityConfig gate;
    gate.enabled = c.gate;
    for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
      std::vector<attack::ComponentResult> results;
      std::vector<std::size_t> accepted;
      attack::QualityReport quality;
      std::string error;
      ASSERT_TRUE(attack::attack_components_gated(archive.path, gate, config_for, p,
                                                  *c.components, results, accepted,
                                                  &quality, &error))
          << error;
      EXPECT_EQ(fan_out_digest(results, *c.components, &accepted, &quality), c.digest)
          << "gate " << c.gate << ", " << c.components->size() << " components, "
          << (p != nullptr ? "3-worker pool" : "no pool");
    }
  }

  // The in-memory fan-out over the same slot sets.
  std::vector<sca::TraceSet> sets;
  {
    tracestore::ArchiveReader reader;
    ASSERT_TRUE(reader.open(archive.path)) << reader.error();
    std::vector<std::size_t> slots(hn);
    for (std::size_t s = 0; s < hn; ++s) slots[s] = s;
    ASSERT_TRUE(sca::load_trace_sets_for(reader, slots, sets));
  }
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    const auto results = attack::attack_all_components_parallel(sets, config_for, p);
    ASSERT_EQ(results.size(), n);
    EXPECT_EQ(fan_out_digest(results, all, nullptr, nullptr), 0xB9ADA51B6FBF4EE4ULL)
        << (p != nullptr ? "3-worker pool" : "no pool");
  }
}

// --- slot matrices against the per-component TraceSet path ----------------

// Every field of a phase, scores compared by bit pattern.
void expect_same_phase(const attack::PhaseOutcome& got, const attack::PhaseOutcome& want,
                       const std::string& ctx) {
  EXPECT_EQ(got.value, want.value) << ctx;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.score), std::bit_cast<std::uint64_t>(want.score))
      << ctx;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.score_sd),
            std::bit_cast<std::uint64_t>(want.score_sd))
      << ctx;
  ASSERT_EQ(got.top.size(), want.top.size()) << ctx;
  for (std::size_t i = 0; i < got.top.size(); ++i) {
    EXPECT_EQ(got.top[i].guess, want.top[i].guess) << ctx << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.top[i].score),
              std::bit_cast<std::uint64_t>(want.top[i].score))
        << ctx << " rank " << i;
  }
}

void expect_same_result(const attack::ComponentResult& got, const attack::ComponentResult& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.bits, want.bits) << ctx;
  EXPECT_EQ(got.sign, want.sign) << ctx;
  EXPECT_EQ(got.exponent, want.exponent) << ctx;
  EXPECT_EQ(got.x0, want.x0) << ctx;
  EXPECT_EQ(got.x1, want.x1) << ctx;
  expect_same_phase(got.sign_phase, want.sign_phase, ctx + " sign");
  expect_same_phase(got.exp_phase, want.exp_phase, ctx + " exponent");
  expect_same_phase(got.low_extend, want.low_extend, ctx + " low_extend");
  expect_same_phase(got.low_prune, want.low_prune, ctx + " low_prune");
  expect_same_phase(got.high_extend, want.high_extend, ctx + " high_extend");
  expect_same_phase(got.high_prune, want.high_prune, ctx + " high_prune");
}

// The gated fan-out on `archive` for `components`, gate on and off, no
// pool and a 3-worker pool, against the per-component reference: load
// the slot's TraceSet, screen a private copy, build_component_dataset,
// attack_component. Results, accepted counts and the summed report
// must all agree.
void expect_gated_matches_reference(const falcon::SecretKey& sk, const std::string& archive,
                                    const std::vector<std::size_t>& components,
                                    const attack::KeyRecoveryConfig& cfg) {
  const std::size_t hn = sk.params.n >> 1;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };
  std::vector<sca::TraceSet> sets;
  unsigned jitter_max = 0;
  {
    tracestore::ArchiveReader reader;
    ASSERT_TRUE(reader.open(archive)) << reader.error();
    std::vector<std::size_t> slots(hn);
    for (std::size_t s = 0; s < hn; ++s) slots[s] = s;
    ASSERT_TRUE(sca::load_trace_sets_for(reader, slots, sets));
    jitter_max = reader.meta().jitter_max;
  }
  exec::ThreadPool pool(3);
  for (const bool gate_on : {false, true}) {
    attack::QualityConfig gate;
    gate.enabled = gate_on;
    std::vector<attack::ComponentResult> want(2 * hn);
    std::vector<std::size_t> want_accepted(2 * hn, 0);
    attack::QualityReport want_report;
    for (const std::size_t idx : components) {
      const attack::ComponentIndex ci = attack::component_index(idx, hn);
      sca::TraceSet set = sets[ci.slot];
      want_report.add(attack::screen_trace_set(set, gate, jitter_max));
      const attack::ComponentDataset ds = attack::build_component_dataset(set, ci.imag);
      want[idx] = attack::attack_component(ds, config_for(ci));
      want_accepted[idx] = set.traces.size();
    }
    for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
      const std::string ctx = std::string("gate ") + (gate_on ? "on" : "off") +
                              (p != nullptr ? ", 3-worker pool" : ", no pool");
      std::vector<attack::ComponentResult> got;
      std::vector<std::size_t> got_accepted;
      attack::QualityReport report;
      std::string error;
      ASSERT_TRUE(attack::attack_components_gated(archive, gate, config_for, p, components, got,
                                                  got_accepted, &report, &error))
          << ctx << ": " << error;
      for (const std::size_t idx : components) {
        expect_same_result(got[idx], want[idx], ctx + ", component " + std::to_string(idx));
        EXPECT_EQ(got_accepted[idx], want_accepted[idx]) << ctx << ", component " << idx;
      }
      EXPECT_EQ(report.total, want_report.total) << ctx;
      EXPECT_EQ(report.accepted, want_report.accepted) << ctx;
      EXPECT_EQ(report.rejected_saturated, want_report.rejected_saturated) << ctx;
      EXPECT_EQ(report.rejected_energy, want_report.rejected_energy) << ctx;
      EXPECT_EQ(report.rejected_alignment, want_report.rejected_alignment) << ctx;
      EXPECT_EQ(report.realigned, want_report.realigned) << ctx;
    }
  }
}

TEST(ParallelAttack, SlotMatricesMatchPerComponentDatasetsFalcon16) {
  // ResultsPinnedToParent's faulted, jittered archive: the gate rejects
  // on all three screens and realigns, every component requested.
  ChaCha20Prng rng("parallel attack pin");
  const auto kp = falcon::keygen(4, rng);
  TempFile archive("exec_slot_matrix16.fdtrace");
  sca::CampaignConfig camp;
  camp.num_traces = 300;
  camp.device.noise_sigma = 2.0;
  camp.device.jitter_max = 2;
  camp.seed = 0xFA2;
  camp.faults.desync_rate = 0.05;
  camp.faults.saturate_rate = 0.03;
  camp.faults.glitch_rate = 0.02;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, camp, archive.path).ok);
  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0xFA2;
  cfg.adversarial_random = 40;
  std::vector<std::size_t> all(kp.sk.params.n);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  expect_gated_matches_reference(kp.sk, archive.path, all, cfg);
}

TEST(ParallelAttack, SlotMatricesMatchPerComponentDatasetsFalcon512Subset) {
  // Four FALCON-512 queries; a subset of slots, some with both parts.
  ChaCha20Prng rng("slot matrix 512");
  const auto kp = falcon::keygen(9, rng);
  TempFile archive("exec_slot_matrix512.fdtrace");
  sca::CampaignConfig camp;
  camp.num_traces = 4;
  camp.device.noise_sigma = 2.0;
  camp.seed = 0x512;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, camp, archive.path).ok);
  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0x512;
  cfg.adversarial_random = 8;
  const std::vector<std::size_t> subset = {0, 7, 256 + 7, 255, 300, 511};
  expect_gated_matches_reference(kp.sk, archive.path, subset, cfg);
}

TEST(ParallelAttack, GateScreensEachRequestedSlotOnce) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  ChaCha20Prng rng("gate once");
  const auto kp = falcon::keygen(3, rng);
  TempFile archive("exec_gate_once.fdtrace");
  sca::CampaignConfig camp;
  camp.num_traces = 120;
  camp.device.noise_sigma = 2.0;
  camp.device.jitter_max = 2;
  camp.seed = 0x6A7E;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, camp, archive.path).ok);
  attack::KeyRecoveryConfig cfg;
  cfg.adversarial_random = 8;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(kp.sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };
  // FALCON-8: slots 0..3. Slot 1 twice (Re and Im), slot 3 once.
  const std::vector<std::size_t> components = {1, 5, 3};
  auto& screened = obs::MetricsRegistry::global().counter("attack.quality.slots_screened");
  exec::ThreadPool pool(3);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    attack::QualityConfig gate;
    gate.enabled = true;
    std::vector<attack::ComponentResult> results;
    std::vector<std::size_t> accepted;
    std::string error;
    const std::uint64_t before = screened.value();
    ASSERT_TRUE(attack::attack_components_gated(archive.path, gate, config_for, p, components,
                                                results, accepted, nullptr, &error))
        << error;
    EXPECT_EQ(screened.value() - before, 2U);
    gate.enabled = false;
    const std::uint64_t before_off = screened.value();
    ASSERT_TRUE(attack::attack_components_gated(archive.path, gate, config_for, p, components,
                                                results, accepted, nullptr, &error))
        << error;
    EXPECT_EQ(screened.value(), before_off);  // no gate, no screen
  }
}

}  // namespace
