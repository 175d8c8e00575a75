#pragma once
// Trace quality gate in front of the CPA stack.
//
// A real rig hands the attacker a mix of usable and worthless windows:
// clipped front-ends, glitched records, windows the trigger placed off
// by dozens of samples. Feeding those straight into Pearson folds costs
// correlation (saturation destroys the HW-amplitude linearity, a single
// 500-unit spike dominates a column's variance, a desynced window is
// noise against every hypothesis). The gate screens each slot's trace
// set BEFORE dataset extraction:
//
//   1. saturation  -- clipping creates exact-value pile-ups at the trace
//                     extremes (float noise never collides); a trace
//                     whose max/min values repeat across >= pinned_frac
//                     of its samples is rejected;
//   2. energy      -- robust outlier screen: reject traces whose energy
//                     (sum of squares) sits further than energy_mad_k
//                     scaled-MADs from the slot median (catches glitch
//                     spikes and other gross amplitude damage);
//   3. alignment   -- every surviving trace is lag-searched over
//                     [0, max_lag] with a boxcar matched filter (signal
//                     samples are positive, noise is zero-mean, so the
//                     densest-energy window is the true one), then
//                     refined against the surviving traces' mean
//                     reference; traces whose best correlation stays
//                     under min_alignment_corr are rejected (gross
//                     desync), the rest are shifted back to lag 0 in
//                     place (recovering jitter_max > 0 captures the
//                     naive path loses).
//
// Determinism: the gate is a pure function of the trace bytes and the
// config -- no RNG, no thread-count dependence -- so gated attacks keep
// the DESIGN.md section 9 bit-identity contract.

#include <cstddef>

#include "attack/extend_prune.h"
#include "attack/slot_matrix.h"
#include "sca/campaign.h"

namespace fd::attack {

struct QualityConfig {
  bool enabled = false;  // off = bit-identical to the ungated path
  // Saturation screen: reject when >= max(min_pinned, pinned_frac * S)
  // samples sit exactly at the trace max or min.
  double saturation_pinned_frac = 0.05;
  std::size_t saturation_min_pinned = 6;
  // Energy screen: reject when |energy - median| > energy_mad_k * MAD
  // (MAD scaled by 1.4826 to estimate sigma under normality).
  double energy_mad_k = 8.0;
  // Alignment: search lags [0, max_lag] (max_lag = 0 uses the archive's
  // jitter_max); reject below min_alignment_corr at the best lag.
  unsigned max_lag = 0;
  double min_alignment_corr = 0.5;
  unsigned refine_iters = 2;  // reference re-estimation rounds
};

struct QualityReport {
  std::size_t total = 0;
  std::size_t accepted = 0;
  std::size_t rejected_saturated = 0;
  std::size_t rejected_energy = 0;
  std::size_t rejected_alignment = 0;
  std::size_t realigned = 0;  // accepted after a nonzero-lag shift

  void add(const QualityReport& other) {
    total += other.total;
    accepted += other.accepted;
    rejected_saturated += other.rejected_saturated;
    rejected_energy += other.rejected_energy;
    rejected_alignment += other.rejected_alignment;
    realigned += other.realigned;
  }
};

// Screens `set` in place: rejected traces are erased (original order
// preserved), realigned traces are shifted to lag 0 with a zero-filled
// tail. `jitter_max` is the capture-time jitter bound from the archive
// meta, used when config.max_lag == 0. Accept/reject counts also flow
// through obs metrics (attack.quality.*).
QualityReport screen_trace_set(sca::TraceSet& set, const QualityConfig& config,
                               unsigned jitter_max);

// The same gate over a slot matrix, in place: rejected rows and their
// operands are compacted out (order preserved), realigned rows shifted
// to lag 0. Bit-identical to screen_trace_set over the slot's TraceSet.
// A screen that runs also adds one to attack.quality.slots_screened.
QualityReport screen_slot(SlotMatrix& m, const QualityConfig& config, unsigned jitter_max);

// --- acceptance confidence -------------------------------------------------
//
// The paper accepts a CPA decision once the top-ranked hypothesis
// separates from the runner-up by the 99.99%-confidence interval
// z / sqrt(D) of a Pearson correlation at D traces. Re-measurement
// applies that criterion per component: the margin is the minimum
// top1 - top2 gap across the decisive phases (sign + the two prune
// re-rankings; the exponent phase is excluded because its top class is
// a structural Pearson-alias family the assemble-stage repair owns).
//
// The raw z/sqrt(D) bound treats the two candidates' score estimates as
// independent, but rival hypotheses predict strongly correlated Hamming
// weights, so the variance of the top1 - top2 *difference* is far below
// the independent-samples bound. margin_factor deflates the threshold
// to compensate; the default 0.1 is calibrated so clean bench-scale
// captures (sigma 2, ~350 traces) certify every component within at
// most one re-measurement round, while heavily faulted captures still
// fall under the bar and trigger the controller.

struct ConfidenceConfig {
  double confidence = 0.9999;  // the paper's acceptance criterion
  double margin_factor = 0.1;  // threshold = margin_factor * z / sqrt(D)
};

struct ComponentConfidence {
  double margin = 0.0;     // min decisive top1 - top2 gap
  double threshold = 0.0;  // margin_factor * confidence_interval(D)
  bool confident = false;
};

[[nodiscard]] ComponentConfidence component_confidence(const ComponentResult& result,
                                                       std::size_t num_traces,
                                                       const ConfidenceConfig& config);

}  // namespace fd::attack
