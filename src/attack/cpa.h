#pragma once
// Correlation power/EM analysis (CPA) engine.
//
// Implements the paper's distinguisher (eq. (1)): Pearson correlation
// between per-guess Hamming-weight predictions and trace samples,
// accumulated incrementally so that the correlation-vs-trace-count
// evolution (Fig. 4 e-h) falls out of snapshots of the same pass.
//
// The accumulation itself lives in cpa_kernel.h: traces are buffered in
// batches and folded blocked (see that header for the canonical-order
// and shifted-data contracts). CpaEngine and StreamingScan are both
// thin owners of that kernel, so the streamed and in-memory attack
// paths share one arithmetic by construction.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "attack/cpa_kernel.h"
#include "exec/parallel_for.h"

namespace fd::attack {

// Two-sided normal quantile for the given confidence (e.g. 0.9999).
// The paper draws its confidence interval at +-z/sqrt(D).
[[nodiscard]] double confidence_z(double confidence);
[[nodiscard]] inline double confidence_interval(double confidence, std::size_t num_traces) {
  return confidence_z(confidence) / std::sqrt(static_cast<double>(num_traces));
}

// How peak()/ranking() score a guess across sample points.
enum class CpaRankMode {
  // Paper-faithful: rank by max |r|. An inverted leakage model (HW
  // anti-correlated with the measured amplitude) leaks exactly as much
  // as the upright one; signed ranking is blind to it.
  kAbsPeak,
  // Legacy behavior: rank by the signed maximum correlation.
  kSignedMax,
};

// Peak score / descending ranking over an already-flushed CpaSums --
// the scoring arithmetic of CpaEngine factored out so any owner of a
// fold (the engine, the distinguisher backend, a deserialized fleet
// shard) ranks identically by construction. `sums` must have no
// batched tail pending in its kernel; CpaEngine flushes before
// delegating here.
[[nodiscard]] double cpa_peak(const CpaSums& sums, std::size_t guess, CpaRankMode mode);
[[nodiscard]] std::vector<std::size_t> cpa_ranking(const CpaSums& sums, CpaRankMode mode);

// Incremental Pearson-correlation accumulator over G guesses x S samples.
class CpaEngine {
 public:
  explicit CpaEngine(std::size_t num_guesses, std::size_t num_samples,
                     CpaKernelConfig kernel = {},
                     CpaRankMode rank_mode = CpaRankMode::kAbsPeak);

  // Adopts an already-accumulated fold (e.g. sharded CpaBatchKernel
  // folds recombined through merge_cpa_sums): the engine continues from
  // those statistics as if it had folded every trace itself.
  explicit CpaEngine(CpaSums sums, CpaKernelConfig kernel = {},
                     CpaRankMode rank_mode = CpaRankMode::kAbsPeak);

  // hypotheses: G predicted leakage values; samples: S trace samples.
  void add_trace(std::span<const double> hypotheses, std::span<const float> samples);

  [[nodiscard]] std::size_t num_traces() const { return sums_.traces; }
  [[nodiscard]] std::size_t num_guesses() const { return sums_.num_guesses; }
  [[nodiscard]] std::size_t num_samples() const { return sums_.num_samples; }
  [[nodiscard]] CpaRankMode rank_mode() const { return mode_; }
  [[nodiscard]] const CpaKernelConfig& kernel_config() const { return kernel_.config(); }

  // Pearson r for one (guess, sample); 0 when either side is constant.
  // Reads flush any batched tail first, so they are always exact.
  [[nodiscard]] double correlation(std::size_t guess, std::size_t sample) const;
  // The "leakiest point" score: max over samples of |r| (kAbsPeak,
  // returned as the magnitude) or of signed r (kSignedMax).
  [[nodiscard]] double peak(std::size_t guess) const;
  // Guess indices sorted by descending peak().
  [[nodiscard]] std::vector<std::size_t> ranking() const;

 private:
  CpaRankMode mode_;
  // Reads must fold the buffered tail; the buffer is pure caching
  // state, so it is mutable behind the const accessors.
  mutable CpaBatchKernel kernel_;
  mutable CpaSums sums_;
};

// Hypotheses of the shape the mantissa extend phases scan:
// h(guess, t, c) = popcount(guess * multipliers[c * traces + t]) -- the
// Hamming weight of a partial product of the guessed mantissa half with
// the known operand half of trace t (hyp_low_mul_* / hyp_high_mul_*).
// Passed to StreamingScan::top_k / top_k_list in place of a model
// callback, it routes the scan through product_scan_scores (cpa_kernel.h):
// hypotheses generated a SIMD block of guesses at a time, scores
// bit-identical to a callback returning the same popcounts.
struct ProductModel {
  std::vector<std::uint32_t> multipliers;  // column-major: [column * traces + trace]
};

// Memory-light streaming scan for huge guess spaces (the 2^25 / 2^27
// exhaustive enumerations): traces are stored once, then each guess is
// scored in a single pass without per-guess state. Scores are the mean,
// over the provided sample columns, of the Pearson correlation.
//
// Columns are stored shifted by their first trace (doubles), and the
// per-guess fold runs block-batched in the kernel's 4-lane order, so
// scores are a pure function of (columns, kernel.batch_traces) -- same
// contract as CpaEngine -- whether the model is a callback or a
// ProductModel.
class StreamingScan {
 public:
  // samples: column-major: samples[col][trace].
  explicit StreamingScan(std::vector<std::vector<float>> sample_columns,
                         CpaKernelConfig kernel = {});

  // Shard top_k/top_k_list over `shards` contiguous guess chunks run
  // through `pool` (exec::static_chunks plan; nullptr = inline). Every
  // guess's score is computed independently of every other guess, so
  // sharding is EXACTLY invariant -- not just plan-deterministic: the
  // result is byte-identical to the serial scan at ANY shard count and
  // ANY worker count. The model function must be safe to call from
  // multiple threads (the leakage models are pure functions).
  void set_parallelism(std::size_t shards, exec::ThreadPool* pool) {
    shards_ = shards == 0 ? 1 : shards;
    pool_ = pool;
  }

  struct Scored {
    std::uint32_t guess;
    double score;
  };
  // model: a ProductModel, or a callback model(guess, trace, col) ->
  // predicted leakage. Returns the keep highest-scoring guesses in
  // descending order. A ProductModel whose multipliers are not
  // columns x traces throws std::invalid_argument.
  template <typename ModelFn>
  [[nodiscard]] std::vector<Scored> top_k(std::uint64_t guess_begin, std::uint64_t guess_end,
                                          ModelFn&& model, std::size_t keep) const;
  template <typename ModelFn>
  [[nodiscard]] std::vector<Scored> top_k_list(std::span<const std::uint32_t> guesses,
                                               ModelFn&& model, std::size_t keep) const;

  // Correlation of a single guess (diagnostics).
  template <typename ModelFn>
  [[nodiscard]] double score_one(std::uint32_t guess, ModelFn&& model) const;

  [[nodiscard]] std::size_t num_traces() const { return d_; }

 private:
  // Guesses scored per call of the chunk scorer, between keep-list merges.
  static constexpr std::size_t kScoreChunk = 512;

  template <typename ModelFn, typename GuessAt>
  [[nodiscard]] std::vector<Scored> top_k_impl(std::uint64_t count, GuessAt&& guess_at,
                                               ModelFn&& model, std::size_t keep) const;
  [[nodiscard]] ProductColumns product_columns(const ProductModel& model) const;

  CpaKernelConfig kernel_;
  std::vector<double> cols_;                // column-major, shifted by the first trace
  std::vector<double> col_sum_, col_var_;   // shifted sums / dn*var forms
  std::size_t d_;
  std::size_t shards_ = 1;                  // guess-chunk count for top_k
  exec::ThreadPool* pool_ = nullptr;        // not owned; nullptr = inline
};

// ---- template implementations ------------------------------------------

template <typename ModelFn, typename GuessAt>
std::vector<StreamingScan::Scored> StreamingScan::top_k_impl(std::uint64_t count,
                                                             GuessAt&& guess_at,
                                                             ModelFn&& model,
                                                             std::size_t keep) const {
  constexpr bool kProducts = std::is_same_v<std::remove_cvref_t<ModelFn>, ProductModel>;
  const double dn = static_cast<double>(d_);
  const std::size_t bsz = kernel_.batch_traces == 0 ? 1 : kernel_.batch_traces;
  ProductColumns products;
  if constexpr (kProducts) products = product_columns(model);
  // Scores guesses[0, n): a ProductModel in one lane-parallel kernel
  // call; a callback guess by guess, each block of its hypotheses
  // shifted by the first trace's prediction (mirroring the column
  // shift, so the one-pass moment forms stay cancellation-safe under
  // arbitrary DC offsets) and folded in the lanes4 order.
  const auto score_chunk = [&](const std::uint32_t* guesses, std::size_t n, double* scores,
                               std::vector<double>& hblk) {
    if constexpr (kProducts) {
      product_scan_scores(products, {guesses, n}, scores);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t guess = guesses[i];
        double score_sum = 0.0;
        for (std::size_t c = 0; c < col_sum_.size(); ++c) {
          double sh = 0.0;
          double sh2 = 0.0;
          double sht = 0.0;
          if (d_ > 0) {
            const double h0 = model(guess, 0, c);
            const double* col = cols_.data() + c * d_;
            for (std::size_t t0 = 0; t0 < d_; t0 += bsz) {
              const std::size_t nb = std::min(bsz, d_ - t0);
              for (std::size_t b = 0; b < nb; ++b) hblk[b] = model(guess, t0 + b, c) - h0;
              const HFold f = lanes4_fold_h(hblk.data(), col + t0, nb);
              sh += f.sh;
              sh2 += f.sh2;
              sht += f.sht;
            }
          }
          score_sum += scan_pearson(dn, sh, sh2, sht, col_sum_[c], col_var_[c]);
        }
        scores[i] = score_sum / static_cast<double>(col_sum_.size());
      }
    }
  };
  // The serial scorer over one guess range, with its own buffers and
  // keep-list. The keep-list holds the range's top `keep` under the
  // total order (score descending, arrival ascending): the sorted
  // insert walks past every equal-or-better score, so an equal-scoring
  // later guess ranks after the earlier one, and pop_back evicts the
  // worst under that same order.
  const auto scan_range = [&](std::uint64_t begin, std::uint64_t end) {
    std::vector<Scored> best;
    best.reserve(keep + 1);
    std::vector<double> hblk(kProducts ? 0 : bsz);
    std::uint32_t guesses[kScoreChunk];
    double scores[kScoreChunk];
    for (std::uint64_t g0 = begin; g0 < end; g0 += kScoreChunk) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kScoreChunk, end - g0));
      for (std::size_t i = 0; i < n; ++i) guesses[i] = guess_at(g0 + i);
      score_chunk(guesses, n, scores, hblk);
      for (std::size_t i = 0; i < n; ++i) {
        const double score = scores[i];
        if (best.size() < keep || score > best.back().score) {
          // Insert in sorted (descending) order.
          auto it = best.begin();
          while (it != best.end() && it->score >= score) ++it;
          best.insert(it, {guesses[i], score});
          if (best.size() > keep) best.pop_back();
        }
      }
    }
    return best;
  };
  if (shards_ <= 1 || count < 2) return scan_range(0, count);

  // Sharded scan: per-guess scores are independent of one another, so
  // each chunk's keep-list is EXACTLY what the serial scan would have
  // kept from that range. Concatenating the lists in chunk-index order
  // keeps equal scores in arrival order (within a chunk by the insert
  // rule; across chunks because ranges are ascending), so the stable
  // sort below reproduces the serial result byte for byte at any shard
  // or worker count.
  const auto plan = exec::static_chunks(static_cast<std::size_t>(count), shards_);
  const auto parts = exec::parallel_map<std::vector<Scored>>(
      pool_, plan.size(),
      [&](std::size_t c) { return scan_range(plan[c].begin, plan[c].end); });
  std::vector<Scored> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Scored& a, const Scored& b) { return a.score > b.score; });
  if (all.size() > keep) all.resize(keep);
  return all;
}

template <typename ModelFn>
std::vector<StreamingScan::Scored> StreamingScan::top_k(std::uint64_t guess_begin,
                                                        std::uint64_t guess_end,
                                                        ModelFn&& model,
                                                        std::size_t keep) const {
  return top_k_impl(
      guess_end - guess_begin,
      [guess_begin](std::uint64_t i) { return static_cast<std::uint32_t>(guess_begin + i); },
      std::forward<ModelFn>(model), keep);
}

template <typename ModelFn>
std::vector<StreamingScan::Scored> StreamingScan::top_k_list(
    std::span<const std::uint32_t> guesses, ModelFn&& model, std::size_t keep) const {
  return top_k_impl(
      guesses.size(), [guesses](std::uint64_t i) { return guesses[i]; },
      std::forward<ModelFn>(model), keep);
}

template <typename ModelFn>
double StreamingScan::score_one(std::uint32_t guess, ModelFn&& model) const {
  const std::uint32_t list[1] = {guess};
  const auto r = top_k_list(list, std::forward<ModelFn>(model), 1);
  return r.empty() ? 0.0 : r[0].score;
}

}  // namespace fd::attack
