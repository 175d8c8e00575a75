#pragma once
// The incremental CPA fold with rank-evolution telemetry.
//
// run_cpa_inmemory folds a slot's captured windows, in trace order,
// into a CpaEngine: one add_trace per fpr_mul view, hypotheses
// recomputed from that view's known operand. Its "cpa.snapshot"
// events record the guess ranking as traces accumulate -- the data of
// the paper's Fig. 4 e-h convergence curves (examples/convergence_report,
// fd-report).
//
// Key recovery does not run this fold: every phase of an archive attack
// scores on the slot matrix (attack/slot_matrix.h, DESIGN.md section 26)
// through hypothesis_scan_scores.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/hypothesis.h"
#include "sca/campaign.h"

namespace fd::attack {

// One CPA pass specification: which component, which sample offsets
// inside each fpr_mul block, and how a guess predicts leakage from the
// trace's known operand.
struct StreamingCpaSpec {
  bool imag_part = false;  // Im FFT(-row)[slot] instead of Re; the slot is
                           // the one of the TraceSet folded
  // Offsets within one fpr_mul block (sca::window::kOff*); each offset
  // contributes one sample column per view (both views are folded in,
  // like the in-memory extend-and-prune scans).
  std::vector<std::size_t> sample_offsets;
  std::vector<std::uint32_t> guesses;
  // model(guess, known operand) -> predicted Hamming-weight leakage.
  std::function<double(std::uint32_t, const KnownOperand&)> model;
  std::size_t max_traces = 0;  // 0 = every trace in the set
  // Accumulation kernel (batch size is part of the statistics'
  // identity, see cpa_kernel.h).
  CpaKernelConfig kernel;

  // --- telemetry (no effect on the accumulated statistics) ---------------
  //
  // When `snapshot_every` > 0 and a telemetry sink is installed
  // (obs::set_sink), a "cpa.snapshot" event is emitted after every that
  // many windows folded, and once more at the end of the pass: current
  // trace count, top-1 guess and peak correlation, top-1/top-2 margin,
  // and -- if `truth_guess` names a member of `guesses` -- the rank and
  // peak of the true value. A file of these snapshots is enough to
  // reconstruct the paper's Fig. 4 e-h convergence curves offline
  // (fd-report renders them). Only windows that actually contributed at
  // least one add_trace count toward the cadence and the `traces` field
  // (a window whose sample layout has no room for this spec's views
  // folds nothing).
  std::size_t snapshot_every = 0;
  std::int64_t truth_guess = -1;  // guess *value* to track, -1 = none
  std::string label;              // event tag, e.g. "slot3.im"
};

// Folds the first spec.max_traces windows of `set` (all when 0) and
// returns the filled accumulator. Guess i of the engine is
// spec.guesses[i]. A spec with no guesses, no sample offsets or no
// model throws std::invalid_argument.
[[nodiscard]] CpaEngine run_cpa_inmemory(const sca::TraceSet& set,
                                         const StreamingCpaSpec& spec);

}  // namespace fd::attack
