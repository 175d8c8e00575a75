#include "distinguisher/pooled_profile.h"

#include <cmath>

#include "common/popcount.h"

namespace fd::distinguisher {

namespace ww = sca::window;
using attack::ComponentDataset;
using attack::KnownOperand;
using fpr::Fpr;

double template_predicted_hw(std::size_t offset, std::uint64_t bits, const KnownOperand& k) {
  const Fpr cand = Fpr::from_bits(bits);
  const KnownOperand s = KnownOperand::from(cand);
  switch (offset) {
    case ww::kOffSign:
      return attack::hyp_sign(cand.sign(), k);
    case ww::kOffExpX:
      return popcount64(cand.biased_exponent());
    case ww::kOffExpSum:
      return attack::hyp_exponent(cand.biased_exponent(), k);
    case ww::kOffXLo:
      return popcount64(s.y0);
    case ww::kOffXHi:
      return popcount64(s.y1);
    case ww::kOffProdLL:
      return attack::hyp_low_mul_ll(s.y0, k);
    case ww::kOffProdLH:
      return attack::hyp_low_mul_lh(s.y0, k);
    case ww::kOffAccZ1a:
      return attack::hyp_low_add_z1a(s.y0, k);
    case ww::kOffProdHL:
      return attack::hyp_high_mul_hl(s.y1, k);
    case ww::kOffProdHH:
      return attack::hyp_high_mul_hh(s.y1, k);
    case ww::kOffAccZ1b:
      return attack::hyp_high_add_z1b(s.y1, s.y0, k);
    case ww::kOffAccZu:
      return attack::hyp_high_add_zu(s.y1, s.y0, k);
    default:
      return -1.0;
  }
}

PooledProfile profile_pooled(std::span<const ComponentDataset> dss,
                             std::span<const fpr::Fpr> known_secrets, double ridge) {
  constexpr std::size_t kDim = PooledProfile::kDim;
  PooledProfile prof;

  // Per-offset least-squares fits of sample against predicted weight.
  for (std::size_t off = 0; off < kDim; ++off) {
    double sh = 0.0, sh2 = 0.0, st = 0.0, sht = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < dss.size(); ++i) {
      const auto& ds = dss[i];
      for (unsigned v = 0; v < 2; ++v) {
        for (std::size_t t = 0; t < ds.num_traces; ++t) {
          const double h =
              template_predicted_hw(off, known_secrets[i].bits(), ds.views[v].known[t]);
          if (h < 0.0) continue;
          const double s = ds.views[v].samples[off][t];
          sh += h;
          sh2 += h * h;
          st += s;
          sht += h * s;
          ++count;
        }
      }
    }
    if (count < 8) continue;
    const double dn = static_cast<double>(count);
    const double var_h = dn * sh2 - sh * sh;
    prof.alpha[off] = var_h > 1e-9 ? (dn * sht - sh * st) / var_h : 0.0;
    prof.beta[off] = (st - prof.alpha[off] * sh) / dn;
    prof.modeled[off] = prof.alpha[off] != 0.0;
  }

  // Pooled joint residual covariance over the modeled offsets. Rows
  // with any unmodeled offset still contribute to the modeled cells;
  // unmodeled rows/columns stay zero (plus ridge) and are never used --
  // phase_precision only ever restricts to modeled offsets.
  std::array<double, kDim> resid{};
  for (std::size_t i = 0; i < dss.size(); ++i) {
    const auto& ds = dss[i];
    for (unsigned v = 0; v < 2; ++v) {
      for (std::size_t t = 0; t < ds.num_traces; ++t) {
        for (std::size_t off = 0; off < kDim; ++off) {
          if (!prof.modeled[off]) {
            resid[off] = 0.0;
            continue;
          }
          const double h =
              template_predicted_hw(off, known_secrets[i].bits(), ds.views[v].known[t]);
          resid[off] = h < 0.0 ? 0.0
                               : ds.views[v].samples[off][t] -
                                     (prof.alpha[off] * h + prof.beta[off]);
        }
        for (std::size_t a = 0; a < kDim; ++a) {
          for (std::size_t b = 0; b < kDim; ++b) {
            prof.cov[a * kDim + b] += resid[a] * resid[b];
          }
        }
        ++prof.pooled_traces;
      }
    }
  }
  if (prof.pooled_traces > 0) {
    const double inv = 1.0 / static_cast<double>(prof.pooled_traces);
    for (auto& c : prof.cov) c *= inv;
  }
  for (std::size_t a = 0; a < kDim; ++a) prof.cov[a * kDim + a] += ridge;
  return prof;
}

namespace {

// In-place Cholesky factorization A = L L^T of a row-major k x k
// matrix; returns false if a pivot is not strictly positive.
bool cholesky(std::vector<double>& a, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * k + j];
      for (std::size_t m = 0; m < j; ++m) sum -= a[i * k + m] * a[j * k + m];
      if (i == j) {
        if (sum <= 0.0) return false;
        a[i * k + i] = std::sqrt(sum);
      } else {
        a[i * k + j] = sum / a[j * k + j];
      }
    }
  }
  return true;
}

}  // namespace

std::vector<double> phase_precision(const PooledProfile& profile,
                                    std::span<const std::size_t> offsets) {
  constexpr std::size_t kDim = PooledProfile::kDim;
  const std::size_t k = offsets.size();
  std::vector<double> sub(k * k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      sub[a * k + b] = profile.cov[offsets[a] * kDim + offsets[b]];
    }
  }
  std::vector<double> chol = sub;
  if (!cholesky(chol, k)) {
    // Degenerate pool: fall back to independent per-point precision.
    std::vector<double> diag(k * k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      const double v = sub[a * k + a];
      diag[a * k + a] = v > 0.0 ? 1.0 / v : 0.0;
    }
    return diag;
  }
  // Invert via L: solve L y = e_j, then L^T x = y, column by column.
  std::vector<double> prec(k * k, 0.0);
  std::vector<double> y(k), x(k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      double sum = i == j ? 1.0 : 0.0;
      for (std::size_t m = 0; m < i; ++m) sum -= chol[i * k + m] * y[m];
      y[i] = sum / chol[i * k + i];
    }
    for (std::size_t ii = k; ii-- > 0;) {
      double sum = y[ii];
      for (std::size_t m = ii + 1; m < k; ++m) sum -= chol[m * k + ii] * x[m];
      x[ii] = sum / chol[ii * k + ii];
    }
    for (std::size_t i = 0; i < k; ++i) prec[i * k + j] = x[i];
  }
  return prec;
}

}  // namespace fd::distinguisher
