#include "attack/cpa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace fd::attack {

double confidence_z(double confidence) {
  // Inverse normal CDF at (1 + confidence) / 2 via bisection on erf --
  // evaluated rarely, so simplicity beats speed.
  assert(confidence > 0.0 && confidence < 1.0);
  const double target = (1.0 + confidence) / 2.0;
  double lo = 0.0;
  double hi = 10.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double cdf = 0.5 * (1.0 + std::erf(mid / std::sqrt(2.0)));
    if (cdf < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

CpaEngine::CpaEngine(std::size_t num_guesses, std::size_t num_samples,
                     CpaKernelConfig kernel, CpaRankMode rank_mode)
    : mode_(rank_mode), kernel_(num_guesses, num_samples, kernel) {
  sums_.reset(num_guesses, num_samples);
}

CpaEngine::CpaEngine(CpaSums sums, CpaKernelConfig kernel, CpaRankMode rank_mode)
    : mode_(rank_mode),
      kernel_(sums.num_guesses, sums.num_samples, kernel),
      sums_(std::move(sums)) {}

void CpaEngine::add_trace(std::span<const double> hypotheses, std::span<const float> samples) {
  kernel_.add_trace(sums_, hypotheses, samples);
}

double CpaEngine::correlation(std::size_t guess, std::size_t sample) const {
  kernel_.flush(sums_);
  return sums_.correlation(guess, sample);
}

double cpa_peak(const CpaSums& sums, std::size_t guess, CpaRankMode mode) {
  double best = -2.0;
  for (std::size_t s = 0; s < sums.num_samples; ++s) {
    const double r = sums.correlation(guess, s);
    best = std::max(best, mode == CpaRankMode::kAbsPeak ? std::fabs(r) : r);
  }
  return best;
}

std::vector<std::size_t> cpa_ranking(const CpaSums& sums, CpaRankMode mode) {
  const std::size_t g_ = sums.num_guesses;
  std::vector<double> peaks(g_);
  for (std::size_t g = 0; g < g_; ++g) peaks[g] = cpa_peak(sums, g, mode);
  std::vector<std::size_t> order(g_);
  for (std::size_t g = 0; g < g_; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return peaks[a] > peaks[b]; });
  return order;
}

double CpaEngine::peak(std::size_t guess) const {
  kernel_.flush(sums_);
  return cpa_peak(sums_, guess, mode_);
}

std::vector<std::size_t> CpaEngine::ranking() const {
  kernel_.flush(sums_);
  return cpa_ranking(sums_, mode_);
}

StreamingScan::StreamingScan(std::vector<std::vector<float>> sample_columns,
                             CpaKernelConfig kernel)
    : kernel_(kernel) {
  assert(!sample_columns.empty());
  d_ = sample_columns[0].size();
  cols_.resize(sample_columns.size() * d_);
  col_sum_.resize(sample_columns.size());
  col_var_.resize(sample_columns.size());
  const double dn = static_cast<double>(d_);
  for (std::size_t c = 0; c < sample_columns.size(); ++c) {
    const auto& src = sample_columns[c];
    assert(src.size() == d_);
    // Store the column shifted by its first trace: Pearson r is
    // shift-invariant, and the dn*st2 - st*st form below no longer
    // cancels catastrophically when the raw samples carry a large DC
    // offset (the old float-column code silently zeroed r there).
    double* col = cols_.data() + c * d_;
    const double t0 = d_ > 0 ? static_cast<double>(src[0]) : 0.0;
    for (std::size_t t = 0; t < d_; ++t) col[t] = static_cast<double>(src[t]) - t0;
    const double st = lanes4_sum(col, d_);
    const double st2 = lanes4_sumsq(col, d_);
    col_sum_[c] = st;
    col_var_[c] = dn * st2 - st * st;
  }
}

ProductColumns StreamingScan::product_columns(const ProductModel& model) const {
  if (model.multipliers.size() != cols_.size()) {
    throw std::invalid_argument("StreamingScan: ProductModel has " +
                                std::to_string(model.multipliers.size()) +
                                " multipliers, the scan " + std::to_string(col_sum_.size()) +
                                " columns x " + std::to_string(d_) + " traces");
  }
  ProductColumns in;
  in.samples = cols_.data();
  in.multipliers = model.multipliers.data();
  in.col_sum = col_sum_.data();
  in.col_var = col_var_.data();
  in.columns = col_sum_.size();
  in.traces = d_;
  in.batch_traces = kernel_.batch_traces == 0 ? 1 : kernel_.batch_traces;
  return in;
}

}  // namespace fd::attack
