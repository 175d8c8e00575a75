#include "attack/key_recovery.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "falcon/ntru_solve.h"
#include "fft/fft.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "zq/zq.h"

namespace fd::attack {

using fpr::Fpr;

std::optional<falcon::SecretKey> forge_key(std::span<const std::int32_t> f,
                                           const falcon::PublicKey& pk) {
  const unsigned logn = pk.params.logn;
  const std::size_t n = pk.params.n;
  if (f.size() != n || pk.h.size() != n) return std::nullopt;

  // g = h * f mod q; a correct f makes every centered coefficient small.
  std::vector<std::int32_t> g(n);
  {
    obs::Span phase("key_recovery.derive_g");
    std::vector<std::uint32_t> fq(n);
    for (std::size_t i = 0; i < n; ++i) fq[i] = zq::from_signed(f[i]);
    const auto gq = zq::poly_mul(pk.h, fq, logn);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t c = zq::center(gq[i]);
      if (std::abs(c) > 2048) return std::nullopt;  // f is wrong
      g[i] = c;
    }
  }

  // Re-solve the NTRU equation for F, G -- the adversary runs the same
  // public keygen machinery the victim did.
  falcon::ZPoly zf(n), zg(n);
  for (std::size_t i = 0; i < n; ++i) {
    zf[i] = BigInt(f[i]);
    zg[i] = BigInt(g[i]);
  }
  std::optional<falcon::NtruSolution> sol;
  {
    obs::Span phase("key_recovery.ntru_solve");
    sol = falcon::ntru_solve(zf, zg, falcon::kQ);
  }
  if (!sol) return std::nullopt;

  falcon::SecretKey sk;
  sk.params = pk.params;
  sk.f.assign(f.begin(), f.end());
  sk.g = std::move(g);
  sk.big_f.resize(n);
  sk.big_g.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!sol->big_f[i].fits_int64() || !sol->big_g[i].fits_int64()) return std::nullopt;
    sk.big_f[i] = static_cast<std::int32_t>(sol->big_f[i].to_int64());
    sk.big_g[i] = static_cast<std::int32_t>(sol->big_g[i].to_int64());
  }
  {
    obs::Span phase("key_recovery.expand");
    if (!falcon::expand_secret_key(sk)) return std::nullopt;
  }
  return sk;
}

ComponentAttackConfig component_attack_config(const falcon::SecretKey& victim_sk,
                                              const KeyRecoveryConfig& config, unsigned row,
                                              std::size_t slot, bool imag) {
  const std::size_t hn = victim_sk.params.n >> 1;
  const std::size_t idx = slot + (imag ? hn : 0);
  const auto& secret_row = row == 0 ? victim_sk.b01 : victim_sk.b11;

  ComponentAttackConfig cac;
  cac.extend_top_k = config.extend_top_k;
  cac.kernel.batch_traces = config.cpa_batch;
  cac.cpa_shards = config.cpa_shards;  // scan_pool is wired by the caller
  cac.scorer = config.scorer;  // null = built-in CPA staging
  cac.obs_label = "slot" + std::to_string(slot) + (imag ? ".im" : ".re");
  if (row == 1) {
    // FFT(F) components are larger than FFT(f)'s: shift the
    // exponent prior/window accordingly (|F_i| ~ a few hundred).
    cac.exp_prior = 1035;
    cac.exp_max = 1060;
  }
  if (config.adversarial_random > 0) {
    const KnownOperand split = KnownOperand::from(secret_row[idx]);
    cac.low_candidates = MantissaCandidates::adversarial(
        split.y0, /*high=*/false, config.adversarial_random, config.seed ^ (idx * 17));
    cac.high_candidates = MantissaCandidates::adversarial(
        split.y1, /*high=*/true, config.adversarial_random, config.seed ^ (idx * 31 + 1));
  }
  return cac;
}

namespace {

// Exponent-alias repair on a recovered FFT row (see DESIGN.md):
// steepest descent first on the additive magnitude excess (wrong
// exponents blow components up by 2^(+-k)), then on the integrality
// residual.
void repair_row(std::vector<Fpr>& recovered, std::vector<ComponentResult>& results,
                unsigned logn, double magnitude_limit) {
  obs::Span phase("key_recovery.repair");
  const std::size_t n = std::size_t{1} << logn;

  // The inverse FFT is linear, so changing component idx by delta moves
  // the time-domain row by delta times column idx of it: a trial move
  // costs one pass over n values, not an inverse FFT.
  std::vector<double> columns(n * n);
  {
    std::vector<Fpr> unit(n);
    for (std::size_t idx = 0; idx < n; ++idx) {
      std::fill(unit.begin(), unit.end(), fpr::fpr_of(0));
      unit[idx] = fpr::fpr_of(1);
      fft::ifft(unit, logn);
      for (std::size_t i = 0; i < n; ++i) columns[idx * n + i] = unit[i].to_double();
    }
  }
  std::vector<double> time_domain(n);
  const auto refresh = [&] {
    std::vector<Fpr> tmp(recovered);
    fft::ifft(tmp, logn);
    for (std::size_t i = 0; i < n; ++i) time_domain[i] = tmp[i].to_double();
  };

  // Stage 1 metric: magnitude blowups (a wrong exponent scales its
  // component by 2^(+-k), pushing time-domain values far outside the
  // legal coefficient range). Strictly additive, so descent on it is
  // sound even with many simultaneous errors.
  const auto magnitude_excess = [&](double v) {
    const double mag = std::fabs(v);
    return mag > magnitude_limit ? mag : 0.0;
  };
  // Stage 2 metric: distance to the integer lattice.
  const auto integrality = [](double v) {
    const double frac = v - std::nearbyint(v);
    return frac * frac;
  };
  // The metric of the row with component idx moved by delta (delta 0:
  // the row as it is).
  const auto priced = [&](auto&& term, std::size_t idx, double delta) {
    const double* col = &columns[idx * n];
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += term(time_domain[i] + delta * col[i]);
    return sum;
  };
  // One move per round: of every component's exponent alternatives,
  // the one that lowers the metric most, taken only if it gains
  // min_gain. (A first-improvement pass can take small gains on correct
  // components before the wrong component's large one, and those moves
  // break correct components.) Every move lowers the metric, which is
  // bounded below by 0, by at least min_gain, so the descent ends
  // without a move cap. Returns the number of moves taken.
  const auto descend = [&](auto&& term, double tol, double min_gain) {
    refresh();
    double residual = priced(term, 0, 0.0);
    std::size_t moves = 0;
    while (residual > tol) {
      double best = residual - min_gain;
      std::size_t best_idx = n;
      unsigned best_exp = 0;
      for (std::size_t idx = 0; idx < n; ++idx) {
        const ComponentResult& r = results[idx];
        for (const auto& alt : r.exp_phase.top) {
          if (alt.guess == r.exponent) continue;
          const double moved =
              Fpr::from_bits(assemble_bits(r.sign, alt.guess, r.x1, r.x0)).to_double();
          const double r2 = priced(term, idx, moved - recovered[idx].to_double());
          if (r2 < best) {
            best = r2;
            best_idx = idx;
            best_exp = alt.guess;
          }
        }
      }
      if (best_idx == n) break;
      ComponentResult& r = results[best_idx];
      r.exponent = best_exp;
      recovered[best_idx] = Fpr::from_bits(assemble_bits(r.sign, best_exp, r.x1, r.x0));
      refresh();
      residual = priced(term, 0, 0.0);
      ++moves;
    }
    return moves;
  };
  const std::size_t magnitude_moves = descend(magnitude_excess, /*tol=*/1e-9, /*min_gain=*/1.0);
  const std::size_t integrality_moves = descend(integrality, /*tol=*/1e-6, /*min_gain=*/0.05);
  obs::event("key_recovery.repair")
      .with("n", n)
      .with("magnitude_moves", magnitude_moves)
      .with("integrality_moves", integrality_moves)
      .emit();
}

}  // namespace

RowAssembly assemble_row(std::vector<ComponentResult>& results, unsigned logn, unsigned row) {
  const std::size_t n = std::size_t{1} << logn;
  RowAssembly out;
  out.recovered.resize(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    out.recovered[idx] = Fpr::from_bits(results[idx].bits);
  }
  // Row-1 (F) time-domain coefficients run into the low thousands, so
  // the magnitude stage needs a wider legal window than row 0's f.
  repair_row(out.recovered, results, logn, row == 0 ? 1024.0 : 4096.0);

  std::vector<Fpr> time_domain(out.recovered);
  {
    obs::Span phase("key_recovery.invfft");
    fft::ifft(time_domain, logn);
  }
  out.poly.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.poly[i] = static_cast<std::int32_t>(-fpr::fpr_rint(time_domain[i]));
  }
  return out;
}

}  // namespace fd::attack
