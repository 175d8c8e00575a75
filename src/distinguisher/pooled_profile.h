#pragma once
// Pooled-covariance device profiling: the one template profiler.
//
// The adversary characterizes a clone device running keys they chose
// (the template setting the paper's Section V.A names as the extension
// of its non-profiled CPA). Per event offset of one fpr_mul block the
// profiler fits a linear gain and offset (alpha, beta) against the
// predicted Hamming weight, and it pools the full 17 x 17 residual
// covariance across every profiling trace, view, and known component,
// with a ridge term on the diagonal so small profiling campaigns stay
// invertible. The 17 events of one block share amplifier noise, so
// their residuals correlate, and a joint Gaussian over a phase's
// columns separates candidates a product of per-point marginals cannot.
// Offsets without a usable fit are marked unmodeled and excluded from
// scoring. sqrt(cov[off][off]) is the per-point residual sigma.
//
// phase_precision() extracts the covariance SUBMATRIX of a phase's
// offsets and inverts THAT (deterministic Cholesky) -- the marginal
// precision of a subset is not the submatrix of the joint precision,
// so the inversion must happen after the restriction.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/extend_prune.h"
#include "sca/device.h"

namespace fd::distinguisher {

struct PooledProfile {
  static constexpr std::size_t kDim = sca::window::kEventsPerMul;

  std::array<double, kDim> alpha{};
  std::array<double, kDim> beta{};
  std::array<bool, kDim> modeled{};
  // Row-major kDim x kDim pooled residual covariance (ridge included).
  std::array<double, kDim * kDim> cov{};
  std::size_t pooled_traces = 0;  // residual rows the pool averaged over
};

// Predicted Hamming weight of the event at `offset` of one mul block,
// for a full 64-bit candidate secret against a known operand; -1 for
// offsets the model does not cover (pure-known events, the result
// store). Shared by profile_pooled and make_lr_scorer's training pairs.
[[nodiscard]] double template_predicted_hw(std::size_t offset, std::uint64_t bits,
                                           const attack::KnownOperand& k);

// Fits the profile from datasets whose secret components the adversary
// knows (their own key on the clone device). `ridge` is added to every
// diagonal entry of the pooled covariance.
[[nodiscard]] PooledProfile profile_pooled(std::span<const attack::ComponentDataset> dss,
                                           std::span<const fpr::Fpr> known_secrets,
                                           double ridge = 1e-3);

// Precision (inverse covariance) of the profile restricted to
// `offsets`: a row-major offsets.size()^2 matrix. Deterministic
// Cholesky inversion; falls back to a diagonal inverse if the
// submatrix is not positive definite (degenerate profiling data).
[[nodiscard]] std::vector<double> phase_precision(const PooledProfile& profile,
                                                  std::span<const std::size_t> offsets);

}  // namespace fd::distinguisher
