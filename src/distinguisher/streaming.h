#pragma once
// Disk-streamed distinguishers: the backend-generic twin of
// attack/streaming_cpa.h.
//
// One archive pass feeds any Distinguisher through the same per-window
// fold the CPA path uses: for each record of the target slot, both
// fpr_mul views contribute one observation (hypotheses recomputed from
// that view's known operand, samples gathered at the spec's offsets).
// The pass is attack::demux_archive, the same demux (routing, budgets,
// early exit, "attack.archive.scans" count) run_cpa_streaming_multi
// runs on.
//
// Determinism contract: with a CpaDistinguisher factory and an
// offset-independent model, the fold's add-trace sequence is identical
// to CpaFold's (same records, same view order, same kernel arithmetic),
// so sums, scores and rankings are bit-identical to run_cpa_streaming.
// tests/test_distinguisher.cpp pins this.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "attack/hypothesis.h"
#include "distinguisher/distinguisher.h"
#include "tracestore/archive.h"

namespace fd::distinguisher {

struct StreamingSpec {
  std::size_t slot = 0;
  bool imag_part = false;  // attack Im FFT(-row)[slot] instead of Re
  // Offsets within one fpr_mul block (sca::window::kOff*); one sample
  // column per offset.
  std::vector<std::size_t> sample_offsets;
  std::vector<std::uint32_t> guesses;
  // model(guess, known, offset) -> predicted leakage. Folds for a
  // hyp_stride()==1 distinguisher (the CPA broadcast layout) call it
  // once per guess with offset = sample_offsets[0]; the model must then
  // be offset-independent, exactly like StreamingCpaSpec::model.
  std::function<double(std::uint32_t, const attack::KnownOperand&, std::size_t)> model;
  std::size_t max_traces = 0;  // 0 = every trace in the archive
};

// Builds the (empty) accumulator a spec's fold fills -- e.g. a
// CpaDistinguisher sized to (guesses, offsets), or a profiled backend
// whose columns are the spec's offsets.
using DistinguisherFactory =
    std::function<std::unique_ptr<Distinguisher>(const StreamingSpec&)>;

// Streams the archive once (rewinding first) and returns the filled
// distinguisher. Guess i is spec.guesses[i].
[[nodiscard]] std::unique_ptr<Distinguisher> run_streaming(
    tracestore::ArchiveReader& reader, const StreamingSpec& spec,
    const DistinguisherFactory& make);

// Single-pass multi-component demux: ONE rewind+scan, a fold per spec;
// result[i] is bit-identical to run_streaming(reader, specs[i], make)
// at 1 archive pass instead of specs.size(). Throws
// std::invalid_argument when a spec has no guesses, no sample offsets
// or no model, or when make() returns a distinguisher whose guess count
// differs from the spec's or whose hyp_stride() is neither 1 nor the
// spec's offset count.
[[nodiscard]] std::vector<std::unique_ptr<Distinguisher>> run_streaming_multi(
    tracestore::ArchiveReader& reader, std::span<const StreamingSpec> specs,
    const DistinguisherFactory& make);

}  // namespace fd::distinguisher
