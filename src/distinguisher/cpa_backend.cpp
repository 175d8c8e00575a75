#include "distinguisher/cpa_backend.h"

#include <stdexcept>

namespace fd::distinguisher {

using attack::CpaSums;

CpaDistinguisher::CpaDistinguisher(std::size_t num_guesses, std::size_t num_samples,
                                   attack::CpaKernelConfig kernel)
    : kernel_(num_guesses, num_samples, kernel) {
  sums_.reset(num_guesses, num_samples);
}

void CpaDistinguisher::observe(std::span<const TraceObservation> batch) {
  for (const TraceObservation& obs : batch) {
    kernel_.add_trace(sums_, obs.hypotheses, obs.samples);
  }
}

void CpaDistinguisher::merge(const Distinguisher& other) {
  const auto* o = dynamic_cast<const CpaDistinguisher*>(&other);
  if (o == nullptr || o->num_guesses() != num_guesses() ||
      o->num_columns() != num_columns()) {
    throw std::invalid_argument("CpaDistinguisher::merge: backend/shape mismatch");
  }
  kernel_.flush(sums_);
  o->kernel_.flush(o->sums_);
  if (!attack::merge_cpa_sums(sums_, o->sums_)) {
    throw std::invalid_argument("CpaDistinguisher::merge: fold shape mismatch");
  }
}

double CpaDistinguisher::score(std::size_t guess) const {
  kernel_.flush(sums_);
  return attack::cpa_peak(sums_, guess);
}

std::vector<std::size_t> CpaDistinguisher::ranking() const {
  kernel_.flush(sums_);
  return attack::cpa_ranking(sums_);
}

double CpaDistinguisher::correlation(std::size_t guess, std::size_t sample) const {
  kernel_.flush(sums_);
  return sums_.correlation(guess, sample);
}

void CpaDistinguisher::serialize(std::vector<std::uint8_t>& out) const {
  kernel_.flush(sums_);
  out.push_back(static_cast<std::uint8_t>(Backend::kCpa));
  out.push_back(0);  // mode byte: |r| ranking is the only mode
  wire::put_u64(out, kernel_.config().batch_traces);
  attack::serialize_cpa_sums(out, sums_);
}

std::unique_ptr<Distinguisher> CpaDistinguisher::deserialize(
    std::span<const std::uint8_t> bytes, std::size_t& offset) {
  wire::Cursor c{bytes.subspan(offset)};
  if (c.u8() != static_cast<std::uint8_t>(Backend::kCpa)) return nullptr;
  const std::uint8_t mode = c.u8();
  const std::uint64_t batch = c.u64();
  if (c.fail || mode != 0) return nullptr;
  CpaSums sums;
  std::size_t sums_off = c.off;
  if (!attack::deserialize_cpa_sums(bytes.subspan(offset), sums_off, sums)) return nullptr;
  attack::CpaKernelConfig kc;
  kc.batch_traces = static_cast<std::size_t>(batch);
  auto out = std::make_unique<CpaDistinguisher>(sums.num_guesses, sums.num_samples, kc);
  out->sums_ = std::move(sums);
  offset += sums_off;
  return out;
}

}  // namespace fd::distinguisher
