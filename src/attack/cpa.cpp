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
                     CpaKernelConfig kernel)
    : kernel_(num_guesses, num_samples, kernel) {
  sums_.reset(num_guesses, num_samples);
}

void CpaEngine::add_trace(std::span<const double> hypotheses, std::span<const float> samples) {
  kernel_.add_trace(sums_, hypotheses, samples);
}

double CpaEngine::correlation(std::size_t guess, std::size_t sample) const {
  kernel_.flush(sums_);
  return sums_.correlation(guess, sample);
}

namespace {

double cpa_peak(const CpaSums& sums, std::size_t guess) {
  double best = -2.0;
  for (std::size_t s = 0; s < sums.num_samples; ++s) {
    best = std::max(best, std::fabs(sums.correlation(guess, s)));
  }
  return best;
}

std::vector<std::size_t> cpa_ranking(const CpaSums& sums) {
  const std::size_t g_ = sums.num_guesses;
  std::vector<double> peaks(g_);
  for (std::size_t g = 0; g < g_; ++g) peaks[g] = cpa_peak(sums, g);
  std::vector<std::size_t> order(g_);
  for (std::size_t g = 0; g < g_; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return peaks[a] > peaks[b]; });
  return order;
}

}  // namespace

double CpaEngine::peak(std::size_t guess) const {
  kernel_.flush(sums_);
  return cpa_peak(sums_, guess);
}

std::vector<std::size_t> CpaEngine::ranking() const {
  kernel_.flush(sums_);
  return cpa_ranking(sums_);
}

namespace {

std::vector<SampleColumn> column_views(const std::vector<std::vector<float>>& columns) {
  std::vector<SampleColumn> views;
  views.reserve(columns.size());
  for (const auto& c : columns) views.push_back(SampleColumn::of(c));
  return views;
}

}  // namespace

StreamingScan::StreamingScan(const std::vector<std::vector<float>>& sample_columns,
                             CpaKernelConfig kernel)
    : StreamingScan(column_views(sample_columns), kernel) {}

StreamingScan::StreamingScan(std::span<const SampleColumn> sample_columns,
                             CpaKernelConfig kernel)
    : kernel_(kernel) {
  if (sample_columns.empty()) throw std::invalid_argument("StreamingScan: no sample columns");
  d_ = sample_columns[0].size();
  for (std::size_t c = 1; c < sample_columns.size(); ++c) {
    if (sample_columns[c].size() != d_) {
      throw std::invalid_argument("StreamingScan: column " + std::to_string(c) + " has " +
                                  std::to_string(sample_columns[c].size()) +
                                  " traces, column 0 has " + std::to_string(d_));
    }
  }
  cols_.resize(sample_columns.size() * d_);
  col_sum_.resize(sample_columns.size());
  col_var_.resize(sample_columns.size());
  const double dn = static_cast<double>(d_);
  for (std::size_t c = 0; c < sample_columns.size(); ++c) {
    const SampleColumn& src = sample_columns[c];
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

HypothesisColumns StreamingScan::bind(const HypothesisModel& model,
                                      std::vector<HypothesisColumn>& hyps) const {
  const std::size_t columns = col_sum_.size();
  const auto shape_error = [&](const std::string& what) {
    return std::invalid_argument("StreamingScan: HypothesisModel " + what + ", the scan has " +
                                 std::to_string(columns) + " columns x " + std::to_string(d_) +
                                 " traces");
  };
  if (model.columns.size() != columns) {
    throw shape_error("has " + std::to_string(model.columns.size()) + " columns");
  }
  hyps.resize(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    const HypothesisModel::Column& col = model.columns[c];
    hyps[c].kind = col.kind;
    hyps[c].guess_or = col.guess_or;
    for (std::size_t k = 0; k < leak_operands(col.kind); ++k) {
      if (col.ops[k].size() != d_) {
        throw shape_error("column " + std::to_string(c) + " operand " + std::to_string(k) +
                          " has " + std::to_string(col.ops[k].size()) + " traces");
      }
      hyps[c].ops[k] = col.ops[k].data();
    }
  }
  return kernel_input(hyps);
}

HypothesisColumns StreamingScan::bind(const ProductModel& model,
                                      std::vector<HypothesisColumn>& hyps) const {
  if (model.multipliers.size() != cols_.size()) {
    throw std::invalid_argument("StreamingScan: ProductModel has " +
                                std::to_string(model.multipliers.size()) +
                                " multipliers, the scan " + std::to_string(col_sum_.size()) +
                                " columns x " + std::to_string(d_) + " traces");
  }
  hyps.assign(col_sum_.size(), HypothesisColumn{});
  for (std::size_t c = 0; c < hyps.size(); ++c) hyps[c].ops[0] = model.multipliers.data() + c * d_;
  return kernel_input(hyps);
}

HypothesisColumns StreamingScan::kernel_input(const std::vector<HypothesisColumn>& hyps) const {
  HypothesisColumns in;
  in.samples = cols_.data();
  in.hyps = hyps.data();
  in.col_sum = col_sum_.data();
  in.col_var = col_var_.data();
  in.columns = hyps.size();
  in.traces = d_;
  in.batch_traces = kernel_.batch_traces == 0 ? 1 : kernel_.batch_traces;
  return in;
}

}  // namespace fd::attack
