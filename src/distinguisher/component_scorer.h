#pragma once
// Profiled component scorers: the pluggable backends of attack_component.
//
// A scorer runs the same staged pipeline as the built-in CPA path --
// sign / exponent / mantissa-low extend+prune / mantissa-high
// extend+prune -- but ranks every stage with a profiled distinguisher
// (pooled-covariance templates or the learned LR head) instead of
// Pearson correlation. Two structural advantages over CPA, both paid
// for by the profiling phase on a cloned device:
//   * the exponent stage scores the secret-exponent register load
//     (kOffExpX) jointly with the sum, so the Pearson alias tie class
//     never forms and no prior-based tie-breaking is needed;
//   * the prune stages score the full joint offset set of their half
//     (operand load + products + accumulations), squeezing every
//     modeled event's evidence into the final pick -- the
//     traces-to-disclosure advantage the backend matrix measures.
//
// Scorers are pure functions of (dataset, config): attack() is called
// concurrently from worker threads and mutates nothing.

#include <array>
#include <memory>

#include "attack/extend_prune.h"
#include "distinguisher/lr_backend.h"
#include "distinguisher/pooled_profile.h"
#include "distinguisher/types.h"
#include "sca/device.h"

namespace fd::distinguisher {

class TemplateScorer final : public attack::ComponentScorer {
 public:
  explicit TemplateScorer(PooledProfile profile) : profile_(profile) {}

  [[nodiscard]] attack::ComponentResult attack(
      const attack::ComponentDataset& ds,
      const attack::ComponentAttackConfig& config) const override;

  [[nodiscard]] const PooledProfile& profile() const { return profile_; }

 private:
  PooledProfile profile_;
};

class LrScorer final : public attack::ComponentScorer {
 public:
  LrScorer(std::array<LrHead, PooledProfile::kDim> heads,
           std::array<bool, PooledProfile::kDim> trained)
      : heads_(heads), trained_(trained) {}

  [[nodiscard]] attack::ComponentResult attack(
      const attack::ComponentDataset& ds,
      const attack::ComponentAttackConfig& config) const override;

  [[nodiscard]] const std::array<LrHead, PooledProfile::kDim>& heads() const {
    return heads_;
  }
  [[nodiscard]] const std::array<bool, PooledProfile::kDim>& trained() const {
    return trained_;
  }

 private:
  std::array<LrHead, PooledProfile::kDim> heads_;
  std::array<bool, PooledProfile::kDim> trained_;
};

// Builds the scorer for a backend selection. kCpa returns nullptr --
// the null scorer, i.e. attack_component's built-in CPA staging.
// Profiled backends run the deterministic profiling campaign: a clone
// keypair generated from sel.profile_seed, sel.profile_traces signing
// queries on the same device model, and the first
// sel.profile_components components (known from the clone's own b01)
// as labeled training data. Everything is a pure function of
// (sel, device, logn), so coordinator and workers rebuild identical
// scorers from the BackendSelection alone -- no profile ever crosses
// the fleet wire.
[[nodiscard]] std::shared_ptr<const attack::ComponentScorer> make_component_scorer(
    const BackendSelection& sel, const sca::DeviceConfig& device, unsigned logn);

// Trains directly on caller-supplied clone datasets with known secrets
// -- the building blocks make_component_scorer assembles after its
// profiling campaign, exposed for benches and tests that bring their
// own profiling data.
[[nodiscard]] std::shared_ptr<const attack::ComponentScorer> make_template_scorer(
    std::span<const attack::ComponentDataset> dss, std::span<const fpr::Fpr> secrets);
[[nodiscard]] std::shared_ptr<const attack::ComponentScorer> make_lr_scorer(
    std::span<const attack::ComponentDataset> dss, std::span<const fpr::Fpr> secrets,
    const BackendSelection& sel);

}  // namespace fd::distinguisher
