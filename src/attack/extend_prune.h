#pragma once
// The paper's extend-and-prune attack on one FFT(f) component.
//
// Pipeline per secret 64-bit component (Section III):
//   1. sign:      2-way CPA on the XOR event;
//   2. exponent:  2^11-way CPA on the exponent-sum addition;
//   3. mantissa low 25 bits:
//        extend -- CPA on the x0*y0 / x0*y1 partial products. Bit-shifted
//                  guesses produce identical Hamming weights, so this
//                  phase keeps the top-K (the false positives survive);
//        prune  -- CPA on the z1a intermediate addition, which is not
//                  shift-invariant, re-ranks the K candidates and kills
//                  the false positives;
//   4. mantissa high 27 free bits: same extend (x1*y0 / x1*y1) and prune
//      (zu accumulation, using the recovered x0).
//
// Each component is multiplied by two known values per trace (the real
// and imaginary part of the FFT(c) slot), giving two independent "views"
// whose correlations are averaged.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/hypothesis.h"
#include "sca/campaign.h"
#include "sca/device.h"

namespace fd::attack {

// Samples of one window a dataset reads: the four fpr_mul blocks. A
// shorter window is refused (build_component_dataset, the archive
// demux of slot_matrix.h), never read past.
inline constexpr std::size_t kDatasetWindowSamples = 4 * sca::window::kEventsPerMul;

// The 17 sample columns of one fpr_mul block across a dataset's
// traces, read in place: column `offset` starts at base + offset *
// column_stride and steps trace_stride floats per trace.
struct BlockSamples {
  const float* base = nullptr;
  std::size_t traces = 0;
  std::size_t trace_stride = 1;
  std::size_t column_stride = 0;

  [[nodiscard]] SampleColumn operator[](std::size_t offset) const {
    return {base + offset * column_stride, traces, trace_stride};
  }
};

// Per-component trace view: the 17 samples of one fpr_mul block plus the
// known operand, for each of the two multiplications involving this
// component. The views point into storage the dataset does not copy:
// its own `storage` when built from a TraceSet, or a SlotMatrix
// (slot_matrix.h) that must outlive it. Copies and moves share the
// storage, so a moved dataset stays valid.
struct ComponentDataset {
  struct View {
    KnownOperands known;    // D entries
    BlockSamples samples;   // samples[offset][trace], 17 columns x D
  };
  View views[2];
  std::size_t num_traces = 0;
  std::shared_ptr<const void> storage;  // owned samples and operands, or null

  // Column `offset` of both views as a StreamingScan input.
  [[nodiscard]] std::array<SampleColumn, 2> columns(std::size_t offset) const {
    return {views[0].samples[offset], views[1].samples[offset]};
  }
};

// Extracts the dataset for the real (imag_part=false) or imaginary part
// of the slot captured in the trace set: one copy of the 34 sample
// columns and the known operands it reads. max_traces == 0 means all.
// A window shorter than kDatasetWindowSamples throws
// std::invalid_argument.
[[nodiscard]] ComponentDataset build_component_dataset(const sca::TraceSet& set, bool imag_part,
                                                       std::size_t max_traces = 0);

// Candidate generators for the mantissa phases.
struct MantissaCandidates {
  // The adversarial evaluation set: the true value, every in-range shift
  // of it (the paper's false-positive family), shifts-of-shifts, and
  // `random_count` random fillers. `high` selects the [2^27, 2^28) space.
  [[nodiscard]] static std::vector<std::uint32_t> adversarial(std::uint32_t truth, bool high,
                                                              std::size_t random_count,
                                                              std::uint64_t seed);
};

struct ComponentDataset;
struct ComponentAttackConfig;
struct ComponentResult;

// Pluggable component-attack backend (src/distinguisher). A scorer owns
// one distinguisher family's full staged attack on a component --
// sign / exponent / mantissa-low / mantissa-high -- and fills the same
// ComponentResult the built-in CPA staging does, so everything
// downstream (assembly, confidence gating, checkpointing, the fleet
// wire) is backend-agnostic. Implementations must be pure functions of
// (dataset, config): attack() runs concurrently from worker threads.
// The CPA backend is the null scorer -- attack_component's own staging
// runs unchanged, which is what makes `--backend cpa` bit-identical to
// the pre-refactor path by construction.
class ComponentScorer {
 public:
  virtual ~ComponentScorer();
  [[nodiscard]] virtual ComponentResult attack(const ComponentDataset& ds,
                                               const ComponentAttackConfig& config) const = 0;
};

struct ComponentAttackConfig {
  std::size_t extend_top_k = 16;
  // CPA accumulation kernel driving every phase's StreamingScan. The
  // batch size is part of the scores' numerical identity (ULP-level
  // reassociation, see cpa_kernel.h), so pipelines hash it into their
  // experiment id.
  CpaKernelConfig kernel;
  // Candidate lists; empty means exhaustive enumeration of the full
  // space (2^25 / 2^27 guesses -- minutes of CPU per component).
  std::vector<std::uint32_t> low_candidates;
  std::vector<std::uint32_t> high_candidates;
  // Exponent guess window and tie-breaking prior. The known FFT(c)
  // exponents cluster in a narrow band, so HW predictions for guesses
  // offset by +-2^k (k >= 4, no carry crossing in the observed band) are
  // exact affine shifts of each other -- Pearson-identical aliases, a
  // structural false-positive family of the exponent addition that no
  // amount of traces resolves. attack_component therefore returns the
  // whole tie class (exp_phase.top) and picks the member closest to
  // exp_prior (the Rayleigh mode of |FFT(f)| magnitudes); key recovery
  // repairs any residually wrong picks with the integrality constraint
  // on invFFT(FFT(f)). See DESIGN.md "exponent aliasing".
  unsigned exp_min = 1005;
  unsigned exp_max = 1053;
  unsigned exp_prior = 1029;
  // Width of the tie class around the best exponent score; negative
  // selects the adaptive default max(1e-6, 4/sqrt(D)), which keeps every
  // statistical near-alias in the class at any noise level.
  double exp_tie_epsilon = -1.0;
  // Telemetry tag for "ep.phase" events emitted while attacking this
  // component (e.g. "slot3.im"). Purely observational: rankings and
  // recovered values are identical with or without a sink installed.
  std::string obs_label;
  // Non-null routes attack_component through this backend instead of
  // the built-in CPA staging (see ComponentScorer). Shared because the
  // same trained profile serves every component of a run.
  std::shared_ptr<const ComponentScorer> scorer;
  // Guess-space sharding for every phase's StreamingScan (see
  // StreamingScan::set_parallelism). Pure wall-clock knobs: per-guess
  // scores are independent, so the sharded scan is byte-identical to
  // the serial one at any shard count and any worker count. Unlike
  // kernel.batch_traces these do NOT join the experiment identity and
  // are never hashed. cpa_shards <= 1 keeps the serial scan;
  // scan_pool == nullptr runs shards inline on the calling thread.
  std::size_t cpa_shards = 1;
  exec::ThreadPool* scan_pool = nullptr;  // not owned
};

// Device gain/offset estimated by regressing samples of known-value
// events against their Hamming weights (unsupervised profiling on public
// data; see calibrate_device).
struct LinearCalibration {
  double alpha = 0.0;
  double beta = 0.0;
};
[[nodiscard]] LinearCalibration calibrate_device(const ComponentDataset& ds);

// The exponent phase's alias tie-break, shared by the CPA staging and
// the profiled scorers. Pearson is blind to affine prediction shifts,
// but the aliases predict different absolute per-trace amplitudes: with
// the device gain/offset self-calibrated from known-value events
// (calibrate_device), returns the tie whose predicted levels of the
// exponent-sum addition and the secret-exponent register load have the
// least squared error against the samples. A degenerate calibration
// (e.g. a hiding countermeasure) falls back to the tie nearest
// `exp_prior`, starting from `pick`; no ties returns `pick`.
[[nodiscard]] std::uint32_t resolve_exponent_ties(const ComponentDataset& ds,
                                                  std::span<const StreamingScan::Scored> ties,
                                                  std::uint32_t pick, unsigned exp_prior);

struct PhaseOutcome {
  std::uint32_t value = 0;
  double score = 0.0;                        // winning correlation
  // Per-trace standard deviation of the winner's score contributions,
  // reported by profiled backends (template / lr log-likelihood means).
  // 0 marks a Pearson score, whose per-trace scale is the implicit
  // 1/sqrt(D) of the confidence threshold -- component_confidence uses
  // this to normalize top1/top2 margins comparably across backends.
  double score_sd = 0.0;
  std::vector<StreamingScan::Scored> top;    // ranked candidates (diagnostics)
};

struct ComponentResult {
  bool sign = false;
  unsigned exponent = 0;
  std::uint32_t x0 = 0;  // low 25 mantissa bits
  std::uint32_t x1 = 0;  // high 28 mantissa bits (top bit 1)
  std::uint64_t bits = 0;  // assembled IEEE-754 pattern

  PhaseOutcome sign_phase, exp_phase;
  PhaseOutcome low_extend, low_prune, high_extend, high_prune;
};

// Runs the full extend-and-prune pipeline on one component.
[[nodiscard]] ComponentResult attack_component(const ComponentDataset& ds,
                                               const ComponentAttackConfig& config);

// Straw-man baseline (Section III.B): multiplication-only attack with no
// prune phase; picks the top multiplication guess. Used by the ablation
// bench to count false positives.
[[nodiscard]] PhaseOutcome attack_low_mul_only(const ComponentDataset& ds,
                                               std::span<const std::uint32_t> candidates,
                                               std::size_t keep);

[[nodiscard]] std::uint64_t assemble_bits(bool sign, unsigned exponent, std::uint32_t x1,
                                          std::uint32_t x0);

}  // namespace fd::attack
