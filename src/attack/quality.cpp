#include "attack/quality.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "attack/cpa.h"
#include "obs/metrics.h"

namespace fd::attack {

namespace {

// Pearson correlation between `w` samples of `a` (starting at a_off) and
// the reference `ref` (length w).
double window_corr(std::span<const float> a, std::size_t a_off,
                   const std::vector<double>& ref) {
  const std::size_t w = ref.size();
  double sa = 0.0;
  double sr = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    sa += a[a_off + i];
    sr += ref[i];
  }
  const double ma = sa / static_cast<double>(w);
  const double mr = sr / static_cast<double>(w);
  double caa = 0.0;
  double crr = 0.0;
  double car = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    const double da = a[a_off + i] - ma;
    const double dr = ref[i] - mr;
    caa += da * da;
    crr += dr * dr;
    car += da * dr;
  }
  if (caa <= 0.0 || crr <= 0.0) return 0.0;
  return car / std::sqrt(caa * crr);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid - 1),
                     v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (m + v[mid - 1]) / 2.0;
  }
  return m;
}

// The gate over `num` trace windows, row(t) -> std::span<float> of
// trace t: screens 1-3, realigning accepted windows in place. Marks the
// rejects in `reject` and counts them in the report; the caller erases
// them and sets `accepted`.
template <typename RowFn>
QualityReport screen_rows(std::size_t num, RowFn&& row, const QualityConfig& config,
                          unsigned jitter_max, std::vector<bool>& reject) {
  QualityReport rep;
  rep.total = num;
  reject.assign(num, false);

  // --- 1. saturation: exact-value pile-ups at the extremes ------------------
  for (std::size_t t = 0; t < num; ++t) {
    const std::span<const float> s = row(t);
    if (s.empty()) {
      reject[t] = true;  // an empty window is unusable for any column
      ++rep.rejected_saturated;
      continue;
    }
    float lo = s[0];
    float hi = s[0];
    for (const float v : s) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    std::size_t pinned = 0;
    for (const float v : s) {
      if (v == lo || v == hi) ++pinned;
    }
    const auto cut = std::max<std::size_t>(
        config.saturation_min_pinned,
        static_cast<std::size_t>(config.saturation_pinned_frac *
                                 static_cast<double>(s.size())));
    if (pinned >= cut) {
      reject[t] = true;
      ++rep.rejected_saturated;
    }
  }

  // --- 2. energy: robust outlier screen -------------------------------------
  {
    std::vector<double> energy(num, 0.0);
    std::vector<double> pool;
    pool.reserve(num);
    for (std::size_t t = 0; t < num; ++t) {
      if (reject[t]) continue;
      double e = 0.0;
      for (const float v : row(t)) {
        e += static_cast<double>(v) * static_cast<double>(v);
      }
      energy[t] = e;
      pool.push_back(e);
    }
    if (pool.size() >= 4) {
      const double med = median_of(pool);
      std::vector<double> dev;
      dev.reserve(pool.size());
      for (const double e : pool) dev.push_back(std::abs(e - med));
      // 1.4826 * MAD estimates sigma under normality; the relative floor
      // keeps a near-degenerate spread from rejecting everything.
      const double sigma = std::max(1.4826 * median_of(std::move(dev)), 1e-9 * (1.0 + med));
      for (std::size_t t = 0; t < num; ++t) {
        if (reject[t]) continue;
        if (std::abs(energy[t] - med) > config.energy_mad_k * sigma) {
          reject[t] = true;
          ++rep.rejected_energy;
        }
      }
    }
  }

  // --- 3. alignment: boxcar anchor + reference refinement -------------------
  // Window length is uniform per archive; use the shortest survivor
  // defensively. W = S - L is the jitter-free span every lag can serve.
  std::size_t slen = std::numeric_limits<std::size_t>::max();
  for (std::size_t t = 0; t < num; ++t) {
    if (!reject[t]) slen = std::min(slen, row(t).size());
  }
  const std::size_t lag_max =
      config.max_lag != 0 ? config.max_lag : static_cast<std::size_t>(jitter_max);
  if (slen != std::numeric_limits<std::size_t>::max() && slen > lag_max) {
    const std::size_t w = slen - lag_max;
    std::vector<std::size_t> lag(num, 0);

    // Boxcar matched filter: signal samples are positive amplitudes over
    // zero-mean noise, so the lag whose w-window holds the most mass is
    // the trigger offset. This anchors each trace ABSOLUTELY -- a
    // correlation-only refinement could converge to a common nonzero
    // offset and silently shift every CPA column.
    if (lag_max > 0) {
      for (std::size_t t = 0; t < num; ++t) {
        if (reject[t]) continue;
        const std::span<const float> s = row(t);
        double sum = 0.0;
        for (std::size_t i = 0; i < w; ++i) sum += s[i];
        double best = sum;
        std::size_t best_lag = 0;
        for (std::size_t l = 1; l <= lag_max; ++l) {
          sum += s[l + w - 1] - s[l - 1];
          if (sum > best) {
            best = sum;
            best_lag = l;
          }
        }
        lag[t] = best_lag;
      }
    }

    std::vector<double> ref(w, 0.0);
    std::vector<double> corr(num, 1.0);
    const unsigned rounds = std::max(1U, config.refine_iters);
    for (unsigned it = 0; it < rounds; ++it) {
      std::fill(ref.begin(), ref.end(), 0.0);
      std::size_t contributors = 0;
      for (std::size_t t = 0; t < num; ++t) {
        if (reject[t]) continue;
        const std::span<const float> s = row(t);
        for (std::size_t i = 0; i < w; ++i) ref[i] += s[lag[t] + i];
        ++contributors;
      }
      if (contributors == 0) break;
      for (auto& v : ref) v /= static_cast<double>(contributors);
      for (std::size_t t = 0; t < num; ++t) {
        if (reject[t]) continue;
        const std::span<const float> s = row(t);
        double best = -2.0;
        std::size_t best_lag = lag[t];
        for (std::size_t l = 0; l <= lag_max; ++l) {
          const double c = window_corr(s, l, ref);
          if (c > best) {
            best = c;
            best_lag = l;
          }
        }
        lag[t] = best_lag;
        corr[t] = best;
      }
    }
    for (std::size_t t = 0; t < num; ++t) {
      if (reject[t]) continue;
      if (corr[t] < config.min_alignment_corr) {
        reject[t] = true;
        ++rep.rejected_alignment;
      } else if (lag[t] > 0) {
        // Shift the window back to lag 0; the tail the trigger offset
        // pushed out of frame is zero-filled (columns past w are never
        // read once every accepted trace is anchored).
        const std::span<float> s = row(t);
        for (std::size_t i = 0; i + lag[t] < s.size(); ++i) s[i] = s[i + lag[t]];
        std::fill(s.end() - static_cast<std::ptrdiff_t>(lag[t]), s.end(), 0.0F);
        ++rep.realigned;
      }
    }
  }
  return rep;
}

void count_screen(const QualityReport& rep) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("attack.quality.screened").add(rep.total);
  reg.counter("attack.quality.accepted").add(rep.accepted);
  reg.counter("attack.quality.rejected_saturated").add(rep.rejected_saturated);
  reg.counter("attack.quality.rejected_energy").add(rep.rejected_energy);
  reg.counter("attack.quality.rejected_alignment").add(rep.rejected_alignment);
  reg.counter("attack.quality.realigned").add(rep.realigned);
}

}  // namespace

QualityReport screen_trace_set(sca::TraceSet& set, const QualityConfig& config,
                               unsigned jitter_max) {
  if (!config.enabled || set.traces.empty()) {
    QualityReport rep;
    rep.total = rep.accepted = set.traces.size();
    return rep;
  }
  std::vector<bool> reject;
  QualityReport rep = screen_rows(
      set.traces.size(),
      [&set](std::size_t t) { return std::span<float>(set.traces[t].trace.samples); }, config,
      jitter_max, reject);
  // Erase the rejects, preserving order.
  std::size_t keep = 0;
  for (std::size_t t = 0; t < set.traces.size(); ++t) {
    if (!reject[t]) {
      if (keep != t) set.traces[keep] = std::move(set.traces[t]);
      ++keep;
    }
  }
  set.traces.resize(keep);
  rep.accepted = keep;
  count_screen(rep);
  return rep;
}

QualityReport screen_slot(SlotMatrix& m, const QualityConfig& config, unsigned jitter_max) {
  if (!config.enabled || m.rows == 0) {
    QualityReport rep;
    rep.total = rep.accepted = m.rows;
    return rep;
  }
  std::vector<bool> reject;
  QualityReport rep = screen_rows(
      m.rows, [&m](std::size_t t) { return m.row(t); }, config, jitter_max, reject);
  // Compact the accepted rows and their operands, preserving order.
  std::size_t keep = 0;
  for (std::size_t t = 0; t < m.rows; ++t) {
    if (reject[t]) continue;
    if (keep != t) {
      std::copy_n(m.samples.data() + t * m.width, m.width, m.samples.data() + keep * m.width);
      for (auto& part : m.known) {
        for (auto& field : part) field[keep] = field[t];
      }
    }
    ++keep;
  }
  m.rows = keep;
  m.samples.resize(keep * m.width);
  for (auto& part : m.known) {
    for (auto& field : part) field.resize(keep);
  }
  rep.accepted = keep;
  count_screen(rep);
  obs::MetricsRegistry::global().counter("attack.quality.slots_screened").add(1);
  return rep;
}

ComponentConfidence component_confidence(const ComponentResult& result,
                                         std::size_t num_traces,
                                         const ConfidenceConfig& config) {
  ComponentConfidence cc;
  cc.threshold = num_traces == 0
                     ? std::numeric_limits<double>::infinity()
                     : config.margin_factor * confidence_interval(config.confidence, num_traces);
  double margin = std::numeric_limits<double>::infinity();
  const PhaseOutcome* decisive[] = {&result.sign_phase, &result.low_prune,
                                    &result.high_prune};
  for (const PhaseOutcome* phase : decisive) {
    if (phase->top.size() < 2) continue;  // unopposed phase: no gap to doubt
    double gap = phase->top[0].score - phase->top[1].score;
    // Calibration across backends: the threshold below is
    // margin_factor * z / sqrt(D), i.e. "margin_factor standard errors"
    // for a Pearson r whose per-trace scale is ~1 (sd(r) ~ 1/sqrt(D)).
    // Profiled backends score in log-likelihood units and report their
    // per-trace sd in score_sd; dividing the gap by it re-expresses the
    // margin in the same per-trace-sd units, so the one criterion
    // (gap / SE >= margin_factor * z) gates every backend identically.
    // score_sd == 0 marks a Pearson phase and keeps the historical
    // behavior bit for bit.
    if (phase->score_sd > 0.0) gap /= phase->score_sd;
    margin = std::min(margin, gap);
  }
  cc.margin = std::isinf(margin) ? 0.0 : margin;
  cc.confident = num_traces > 0 && (std::isinf(margin) || margin >= cc.threshold);
  return cc;
}

}  // namespace fd::attack
