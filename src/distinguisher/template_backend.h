#pragma once
// Pooled-covariance Gaussian template distinguisher.
//
// Scores guess g on trace s (columns c = a phase's sample offsets) by
// the joint Gaussian log-likelihood of the residual vector
//     e_c = s_c - (alpha_c * h_{g,c} + beta_c)
// under the pooled residual covariance of the profiling campaign:
//     ll_g(trace) = -1/2 e^T P e
// with P the phase-restricted precision (pooled_profile.h). The
// distinguisher accumulates per-guess sum and sum-of-squares of these
// per-trace log-likelihoods, so score() is the mean ll per trace and
// score_sd() its per-trace standard deviation -- the quantity the
// calibrated confidence criterion needs (quality.cpp).
//
// Accumulation order is trace order, guess-major inside a trace.

#include <vector>

#include "distinguisher/distinguisher.h"

namespace fd::distinguisher {

class TemplateDistinguisher final : public Distinguisher {
 public:
  // alpha/beta: per-column linear fits; precision: row-major C x C
  // phase precision. Any other size of beta or precision throws
  // std::invalid_argument.
  TemplateDistinguisher(std::size_t num_guesses, std::vector<double> alpha,
                        std::vector<double> beta, std::vector<double> precision);

  [[nodiscard]] std::size_t num_guesses() const override { return ll_sum_.size(); }
  [[nodiscard]] std::size_t num_traces() const override { return traces_; }

  void observe(std::span<const TraceObservation> batch) override;

  [[nodiscard]] double score(std::size_t guess) const override;
  [[nodiscard]] double score_sd(std::size_t guess) const override;
  [[nodiscard]] std::vector<std::size_t> ranking() const override;

 private:
  std::vector<double> alpha_, beta_;
  std::vector<double> prec_;  // C x C row-major
  std::vector<double> ll_sum_, ll_sumsq_;  // per guess
  std::size_t traces_ = 0;
  std::vector<double> resid_;  // scratch, C
};

// Descending-score ranking with index-order ties -- shared by the
// profiled backends (mirrors CpaEngine::ranking's stable sort).
[[nodiscard]] std::vector<std::size_t> rank_by_score(const Distinguisher& d);

}  // namespace fd::distinguisher
