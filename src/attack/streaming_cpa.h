#pragma once
// Disk-streamed CPA: feed CpaEngine straight from a trace archive.
//
// The in-memory pipeline materializes a whole TraceSet before any
// statistics run; at production campaign sizes (millions of queries x
// n/2 slots) that does not fit. The streaming entry point here walks an
// ArchiveReader chunk by chunk and folds each record of the target slot
// into the same incremental CpaEngine accumulator, so attack memory is
// O(guesses x samples) + one archive chunk, independent of trace count.
//
// Determinism contract: run_cpa_streaming over an archive written by
// sca::run_campaign_to_archive produces bit-identical sums -- and hence
// an identical ranking() -- to run_cpa_inmemory over the matching
// run_full_campaign trace sets, because both visit the same traces in
// the same (query, view) order and the archive stores samples and known
// operands losslessly (both paths own the same CpaBatchKernel fold).
// Tests pin this equivalence exactly.
//
// run_cpa_streaming_multi extends the contract across components: ONE
// archive pass demultiplexes records by slot into per-spec folds, and
// each spec's engine is bit-identical to what a dedicated
// run_cpa_streaming pass would have produced, because the records of
// one slot arrive in the same order either way. That pass is
// demux_archive, the attack layer's one archive demux; the
// backend-generic folds of distinguisher/streaming.h run on it too.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "attack/hypothesis.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd::attack {

// One CPA pass specification: which slot/component, which sample
// offsets inside each fpr_mul block, and how a guess predicts leakage
// from the trace's known operand.
struct StreamingCpaSpec {
  std::size_t slot = 0;
  bool imag_part = false;  // attack Im FFT(-row)[slot] instead of Re
  // Offsets within one fpr_mul block (sca::window::kOff*); each offset
  // contributes one sample column per view (both views are folded in,
  // like the in-memory extend-and-prune scans).
  std::vector<std::size_t> sample_offsets;
  std::vector<std::uint32_t> guesses;
  // model(guess, known operand) -> predicted Hamming-weight leakage.
  std::function<double(std::uint32_t, const KnownOperand&)> model;
  std::size_t max_traces = 0;  // 0 = every trace in the archive
  // Accumulation kernel (batch size is part of the statistics'
  // identity, see cpa_kernel.h).
  CpaKernelConfig kernel;

  // Trace-stream fold sharding. fold_shards <= 1 reproduces the
  // historical incremental fold bit for bit. With fold_shards > 1 the
  // scan buffers each folded view's (known operand, samples) and the
  // fold runs at the end: exec::static_chunks cuts the view stream into
  // fold_shards contiguous shards, each shard folds on its own worker
  // into its own CpaSums through a private CpaBatchKernel, and the
  // shard folds recombine in shard-index order through merge_cpa_sums.
  // The result is a pure function of (view stream, kernel, fold_shards)
  // -- bit-identical at ANY worker count, including fold_pool = nullptr
  // -- while fold_shards itself joins batch_traces in the statistics'
  // identity (the merged sums match the serial fold to ULP-level
  // reassociation). The model must be thread-safe (the leakage models
  // are pure functions). Snapshot telemetry degrades to the final
  // snapshot only: there is no incremental engine state mid-scan.
  std::size_t fold_shards = 1;
  exec::ThreadPool* fold_pool = nullptr;  // not owned; nullptr = inline

  // --- telemetry (no effect on the accumulated statistics) ---------------
  //
  // When `snapshot_every` > 0 and a telemetry sink is installed
  // (obs::set_sink), a "cpa.snapshot" event is emitted after every that
  // many windows folded, and once more at the end of the pass: current
  // trace count, top-1 guess and peak correlation, top-1/top-2 margin,
  // and -- if `truth_guess` names a member of `guesses` -- the rank and
  // peak of the true value. A file of these snapshots is enough to
  // reconstruct the paper's Fig. 4 e-h convergence curves offline
  // (fd-report renders them). Both the streamed and in-memory paths
  // emit identical snapshot streams, since they share the fold. Only
  // windows that actually contributed at least one add_trace count
  // toward the cadence and the `traces` field (a record whose sample
  // layout has no room for this spec's views folds nothing).
  std::size_t snapshot_every = 0;
  std::int64_t truth_guess = -1;  // guess *value* to track, -1 = none
  std::string label;              // event tag, e.g. "slot3.im"
};

// One demux target: a slot and its trace budget.
struct DemuxTarget {
  std::size_t slot = 0;
  std::size_t max_traces = 0;  // 0 = every record of the slot
};

// Receives record `target`'s window: the known operand halves and the
// samples of one archive record routed to targets[target].
using WindowSink = std::function<void(std::size_t target, fpr::Fpr known_re,
                                      fpr::Fpr known_im, std::span<const float> samples)>;

// The attack layer's one archive demux: ONE rewind+scan hands every
// record of targets[i].slot, in archive order, to sink(i, ...) until
// targets[i].max_traces records have gone to it. Targets may share a
// slot; each then receives the same records. The scan stops early once
// every target has a budget and has used it up, and it counts one
// "attack.archive.scans" (none for an empty target list).
void demux_archive(tracestore::ArchiveReader& reader, std::span<const DemuxTarget> targets,
                   const WindowSink& sink);

// Streams the archive once (rewinding first) and returns the filled
// accumulator; ranking()/correlation() behave exactly as in the
// in-memory path. Guess i of the engine is spec.guesses[i].
[[nodiscard]] CpaEngine run_cpa_streaming(tracestore::ArchiveReader& reader,
                                          const StreamingCpaSpec& spec);

// Single-pass multi-component driver: ONE demux_archive pass with a
// fold per spec. result[i] is bit-identical to
// run_cpa_streaming(reader, specs[i]) -- at 1 archive pass instead of
// specs.size(). Specs may share a slot (e.g. the Re and Im components
// of one FFT coefficient). A spec with no guesses, no sample offsets or
// no model throws std::invalid_argument.
[[nodiscard]] std::vector<CpaEngine> run_cpa_streaming_multi(
    tracestore::ArchiveReader& reader, std::span<const StreamingCpaSpec> specs);

// The same fold over an in-memory TraceSet -- the reference the
// streamed path must reproduce bit for bit.
[[nodiscard]] CpaEngine run_cpa_inmemory(const sca::TraceSet& set,
                                         const StreamingCpaSpec& spec);

}  // namespace fd::attack
