// The blocked CPA kernel vs the naive per-trace fold, and the product
// scan vs the per-cell callback.
//
//   ./bench_cpa_kernel [traces] [--json out.jsonl]
//   (default: 20000 traces for the fold shapes; the product scan's
//   shape is fixed)
//
// Fold shapes: g49/s1 is the default attack shape (the exponent phase's
// 49-guess scan over one sample column); g49/s17 folds a full fpr_mul
// window; g256/s17 is the wide-hypothesis stress shape. batch=1 is the
// exact naive per-trace reference fold (same arithmetic the engine
// always produced), batch=64 the blocked kernel -- the speedup column
// is the tentpole acceptance number (>= 2x at the default shape). The
// blocked rows of the two g49 shapes fold 16x and 4x the traces so they
// time above 1 ms (cycling through the same data); their ratios are per
// trace.
//
// The product-scan comparison scores extend25's cell shape (24 traces x
// 4 partial-product columns) over a 2^16-guess window of the low
// mantissa space three ways: the per-cell model callback the extend
// phases used to pass, the ProductModel kernel forced scalar, and the
// dispatched lane-parallel kernel. All three must rank identically.

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/cpa_kernel.h"
#include "bench_harness.h"
#include "common/rng.h"
#include "obs/profile.h"

using namespace fd;

namespace {

struct FoldData {
  std::size_t guesses = 0;
  std::size_t samples = 0;
  std::vector<std::vector<double>> hyps;   // [trace][guess]
  std::vector<std::vector<float>> traces;  // [trace][sample]
};

FoldData make_data(std::size_t traces, std::size_t guesses, std::size_t samples,
                   std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  FoldData d;
  d.guesses = guesses;
  d.samples = samples;
  d.hyps.resize(traces);
  d.traces.resize(traces);
  for (std::size_t t = 0; t < traces; ++t) {
    d.hyps[t].resize(guesses);
    for (std::size_t g = 0; g < guesses; ++g) {
      d.hyps[t][g] = static_cast<double>(rng.next_u8() & 0x3F);
    }
    d.traces[t].resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      d.traces[t][s] = static_cast<float>(d.hyps[t][0] + 2.0 * rng.gaussian());
    }
  }
  return d;
}

// Best-of-reps wall time of one full fold of `traces` traces, cycling
// through the data's (construct, add every trace, flush via a
// correlation read). The read also keeps the optimizer honest.
double fold_ms(const FoldData& d, std::size_t traces, const attack::CpaKernelConfig& cfg,
               int reps, double& sink) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    attack::CpaEngine engine(d.guesses, d.samples, cfg);
    for (std::size_t t = 0; t < traces; ++t) {
      engine.add_trace(d.hyps[t % d.hyps.size()], d.traces[t % d.traces.size()]);
    }
    sink += engine.correlation(0, 0);
    best = std::min(best, timer.ms());
  }
  return best;
}

// Sample columns leaking popcount(truth * y) for per-trace known
// multipliers y: 25-bit (a y0 half) on even columns, 28-bit with the top
// bit set (a y1 half) on odd ones.
struct ProductData {
  std::vector<std::vector<float>> cols;
  attack::ProductModel model;
};

ProductData make_products(std::size_t traces, std::size_t cols, std::uint32_t truth,
                          std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  ProductData d;
  d.cols.assign(cols, std::vector<float>(traces));
  d.model.multipliers.resize(cols * traces);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t t = 0; t < traces; ++t) {
      const auto y = static_cast<std::uint32_t>(c % 2 == 0 ? rng.uniform(1U << 25)
                                                           : (1U << 27) | rng.uniform(1U << 27));
      d.model.multipliers[c * traces + t] = y;
      const double hw = std::popcount(static_cast<std::uint64_t>(truth) * y);
      d.cols[c][t] = static_cast<float>(hw + 0.5 * rng.gaussian());
    }
  }
  return d;
}

// Best-of-reps wall time of one top-16 scan of [begin, end).
template <typename Model>
double scan_ms(const attack::StreamingScan& scan, std::uint64_t begin, std::uint64_t end,
               const Model& model, int reps, std::vector<attack::StreamingScan::Scored>& top) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    top = scan.top_k(begin, end, model, 16);
    best = std::min(best, timer.ms());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("cpa_kernel", argc, argv);
  // Run with the profiling thread live: the EXPERIMENTS.md tracing
  // overhead budget (<5% vs FD_OBS=OFF) is measured sampler-on, so the
  // numbers here include the cost a profiled campaign actually pays.
  // No-op struct under FD_OBS=OFF.
  const obs::ResourceSampler sampler;
  const std::size_t fold_traces =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;

  // --- blocked kernel vs naive per-trace fold -----------------------------
  // blocked_scale multiplies the trace count of the dispatched blocked
  // fold only (cycling through the same `fold_traces` traces, so the data
  // stays as cache-resident as the naive and scalar folds'), so its row
  // clears fd_bench.py's 1 ms noise floor at the gate's 4000 traces; the
  // ratios compare time per trace.
  struct Shape {
    std::size_t guesses, samples, blocked_scale;
  };
  const Shape shapes[] = {{49, 1, 16}, {49, 17, 4}, {256, 17, 1}};
  const int reps = 5;
  double sink = 0.0;

  // fold_blocked_* uses the runtime SIMD dispatch (AVX2 where the CPU
  // has it -- the BENCH_10 acceptance surface); the forced-scalar
  // column isolates the vector kernel's share of the win. Both paths
  // are bit-identical by contract, so the comparison is pure speed.
  const char* active = attack::cpa_simd_name(attack::cpa_active_simd());
  std::printf(
      "CPA fold: naive (batch=1) vs blocked (batch=64), %zu traces, best of %d\n"
      "blocked kernel dispatch: %s (FD_CPA_KERNEL overrides)\n\n",
      fold_traces, reps, active);
  std::printf("%-12s %12s %12s %12s %10s %10s %14s\n", "shape", "naive_ms", "scalar_ms",
              "blocked_ms", "speedup", "simd_x", "Mcells/s");
  for (const auto& sh : shapes) {
    const std::size_t blocked_traces = fold_traces * sh.blocked_scale;
    const FoldData d = make_data(fold_traces, sh.guesses, sh.samples, 0xF01D + sh.guesses);
    const double naive_ms = fold_ms(d, fold_traces, {.batch_traces = 1}, reps, sink);
    const attack::CpaSimd dispatched = attack::cpa_active_simd();
    attack::cpa_force_simd(attack::CpaSimd::kScalar);
    const double scalar_ms = fold_ms(d, fold_traces, {.batch_traces = 64}, reps, sink);
    attack::cpa_force_simd(dispatched);
    const double blocked_ms = fold_ms(d, blocked_traces, {.batch_traces = 64}, reps, sink);
    const auto scale = static_cast<double>(sh.blocked_scale);
    const double speedup = naive_ms * scale / blocked_ms;
    const double simd_x = scalar_ms * scale / blocked_ms;
    const double mcells =
        static_cast<double>(blocked_traces * sh.guesses * sh.samples) / (blocked_ms * 1e3);
    const std::string label =
        "g" + std::to_string(sh.guesses) + "_s" + std::to_string(sh.samples);
    std::printf("%-12s %12.1f %12.1f %12.1f %9.2fx %9.2fx %14.1f\n", label.c_str(), naive_ms,
                scalar_ms, blocked_ms, speedup, simd_x, mcells);
    const std::string params = "traces=" + std::to_string(fold_traces) +
                               " guesses=" + std::to_string(sh.guesses) +
                               " samples=" + std::to_string(sh.samples);
    harness.report("fold_naive_" + label, params, naive_ms);
    harness.report("fold_blocked_scalar_" + label, params, scalar_ms);
    const std::string blocked_params = "traces=" + std::to_string(blocked_traces) +
                                       " guesses=" + std::to_string(sh.guesses) +
                                       " samples=" + std::to_string(sh.samples);
    harness.report("fold_blocked_" + label, blocked_params + " simd=" + active, blocked_ms,
                   speedup, "x_vs_naive");
  }
  attack::cpa_reset_simd();

  // --- product-hypothesis scan: callback vs lane-parallel kernel ----------
  {
    const std::size_t traces = 24;
    const std::size_t cols = 4;
    const std::uint32_t truth = 0x036B580;  // the Fig. 4 coefficient's low half
    const std::uint64_t begin = truth & ~std::uint64_t{0xFFFF};
    const std::uint64_t end = begin + (std::uint64_t{1} << 16);
    const ProductData d = make_products(traces, cols, truth, 0x9E55);
    const attack::StreamingScan scan(d.cols);
    const auto callback = [&d](std::uint32_t g, std::size_t t, std::size_t c) {
      return static_cast<double>(
          std::popcount(static_cast<std::uint64_t>(g) * d.model.multipliers[c * traces + t]));
    };
    std::vector<attack::StreamingScan::Scored> cb_top, scalar_top, top;
    const double callback_ms = scan_ms(scan, begin, end, callback, 3, cb_top);
    const attack::CpaSimd dispatched = attack::cpa_active_simd();
    attack::cpa_force_simd(attack::CpaSimd::kScalar);
    const double scalar_ms = scan_ms(scan, begin, end, d.model, 3, scalar_top);
    attack::cpa_force_simd(dispatched);
    const double product_ms = scan_ms(scan, begin, end, d.model, reps, top);
    attack::cpa_reset_simd();
    const auto same = [&cb_top](const std::vector<attack::StreamingScan::Scored>& v) {
      if (v.size() != cb_top.size()) return false;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i].guess != cb_top[i].guess ||
            std::bit_cast<std::uint64_t>(v[i].score) !=
                std::bit_cast<std::uint64_t>(cb_top[i].score)) {
          return false;
        }
      }
      return true;
    };
    if (!same(scalar_top) || !same(top)) {
      std::fprintf(stderr, "product scan ranking differs from the callback scan\n");
      return 2;
    }
    const double cells = static_cast<double>((end - begin) * traces * cols);
    std::printf("\nproduct-hypothesis scan, 2^16 guesses x %zu traces x %zu columns "
                "(dispatch %s):\n",
                traces, cols, active);
    std::printf("%-22s %10.2f ms  %6.3f ns/cell\n", "callback", callback_ms,
                callback_ms * 1e6 / cells);
    std::printf("%-22s %10.2f ms  %6.3f ns/cell  %5.2fx\n", "product_scalar", scalar_ms,
                scalar_ms * 1e6 / cells, callback_ms / scalar_ms);
    std::printf("%-22s %10.2f ms  %6.3f ns/cell  %5.2fx  (rankings identical)\n", "product",
                product_ms, product_ms * 1e6 / cells, callback_ms / product_ms);
    const std::string params = "guesses=65536 traces=" + std::to_string(traces) +
                               " cols=" + std::to_string(cols);
    harness.report("extend_callback", params, callback_ms);
    harness.report("extend_product_scalar", params, scalar_ms, callback_ms / scalar_ms,
                   "x_vs_callback");
    harness.report("extend_product", params + " simd=" + active, product_ms,
                   callback_ms / product_ms, "x_vs_callback");
  }

  if (sink == 12345.0) std::printf("%f\n", sink);  // defeat dead-code elimination
  return 0;
}
