#pragma once
// The pluggable distinguisher interface (DESIGN.md section 14).
//
// A Distinguisher is one streaming guess-ranking statistic of a
// profiled backend: traces are folded in arrival order through
// observe(), and ranking() orders the guesses by score. The two
// backends behind the interface are
//   - TemplateDistinguisher (template_backend.h): pooled-covariance
//     Gaussian templates -- joint log-likelihood over all of a phase's
//     sample columns under one residual covariance fitted on profiling
//     data by profile_pooled (pooled_profile.h);
//   - LrDistinguisher (lr_backend.h): logistic-regression heads trained
//     on known-value profiling events, scored batch-tiled through the
//     same lanes4 reduction primitives as the CPA kernel.
// The paper's non-profiled Pearson CPA is not behind this interface:
// Backend::kCpa selects attack_component's built-in staging directly.
//
// Determinism contract (shared with cpa_kernel.h): every backend's
// state is a pure function of the observation stream -- fixed-order
// accumulation, no clocks, no global RNG.

#include <cstdint>
#include <span>
#include <vector>

namespace fd::distinguisher {

// One streamed trace observation over the C sample columns a backend
// was built for (C = the template's alpha size, or the LR head count).
// `hypotheses` is guess-major with C values per guess: one prediction
// per (guess, column). `samples` holds at least C measured values of
// this trace; the first C are read.
struct TraceObservation {
  std::span<const double> hypotheses;
  std::span<const float> samples;
};

class Distinguisher {
 public:
  virtual ~Distinguisher();

  [[nodiscard]] virtual std::size_t num_guesses() const = 0;
  [[nodiscard]] virtual std::size_t num_traces() const = 0;

  // Folds a batch of observations in order. Observations must outlive
  // the call only. An observation whose hypotheses are not
  // num_guesses() x C values, or whose samples are fewer than C, throws
  // std::invalid_argument before anything of the batch is folded.
  virtual void observe(std::span<const TraceObservation> batch) = 0;

  // Higher is better. The template backend returns the mean per-trace
  // log-likelihood, the LR backend its centered covariance score
  // (lr_backend.h); both expose the per-trace standard deviation
  // through score_sd() for calibrated confidence gating.
  [[nodiscard]] virtual double score(std::size_t guess) const = 0;
  [[nodiscard]] virtual double score_sd(std::size_t guess) const = 0;
  // Guess indices by descending score; ties keep index order.
  [[nodiscard]] virtual std::vector<std::size_t> ranking() const = 0;

 protected:
  // Throws std::invalid_argument, naming `backend`, unless every
  // observation of `batch` has num_guesses() x `columns` hypotheses and
  // at least `columns` samples.
  void check_batch(std::span<const TraceObservation> batch, std::size_t columns,
                   const char* backend) const;
};

}  // namespace fd::distinguisher
