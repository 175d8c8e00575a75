#pragma once
// CPA behind the Distinguisher interface.
//
// A thin owner of the exact accumulation machinery CpaEngine uses: one
// CpaBatchKernel + CpaSums pair, fed trace by trace in observation
// order. Because the fold, the flush, and the ranking arithmetic
// (cpa_peak / cpa_ranking over the flushed sums) are the same code the
// direct path runs, rankings through this adapter are bit-identical to
// CpaEngine on the same observation stream -- the pin of
// tests/test_distinguisher.cpp. merge() is merge_cpa_sums, the fleet
// shard-fold rebasing; serialize() is serialize_cpa_sums plus a small
// header, so a round trip is byte-exact.

#include "attack/cpa.h"
#include "distinguisher/distinguisher.h"
#include "distinguisher/types.h"

namespace fd::distinguisher {

class CpaDistinguisher final : public Distinguisher {
 public:
  CpaDistinguisher(std::size_t num_guesses, std::size_t num_samples,
                   attack::CpaKernelConfig kernel = {});

  [[nodiscard]] std::uint8_t backend_id() const override {
    return static_cast<std::uint8_t>(Backend::kCpa);
  }
  [[nodiscard]] std::size_t num_guesses() const override { return sums_.num_guesses; }
  [[nodiscard]] std::size_t num_columns() const override { return sums_.num_samples; }
  // One hypothesis per guess, broadcast over every sample column.
  [[nodiscard]] std::size_t hyp_stride() const override { return 1; }
  [[nodiscard]] std::size_t num_traces() const override { return sums_.traces; }

  void observe(std::span<const TraceObservation> batch) override;
  void merge(const Distinguisher& other) override;

  [[nodiscard]] double score(std::size_t guess) const override;
  // Pearson scores carry no per-trace sd; 0 keeps the confidence
  // criterion on its historical 1/sqrt(D) scale (see quality.cpp).
  [[nodiscard]] double score_sd(std::size_t) const override { return 0.0; }
  [[nodiscard]] std::vector<std::size_t> ranking() const override;

  // Layout: backend id, a mode byte (always 0; deserialize rejects any
  // other value), the kernel batch as u64, then serialize_cpa_sums.
  void serialize(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] static std::unique_ptr<Distinguisher> deserialize(
      std::span<const std::uint8_t> bytes, std::size_t& offset);

  // Exact Pearson r of one (guess, sample) cell -- diagnostics parity
  // with CpaEngine::correlation.
  [[nodiscard]] double correlation(std::size_t guess, std::size_t sample) const;

 private:
  // Reads flush the batched tail, as in CpaEngine.
  mutable attack::CpaBatchKernel kernel_;
  mutable attack::CpaSums sums_;
};

}  // namespace fd::distinguisher
