#pragma once
// Blocked, batch-buffered CPA accumulation kernel.
//
// The Pearson distinguisher is the repo's hottest loop: per coefficient
// it folds D traces x G hypotheses x S sample points into five running
// sums. The naive per-trace rank-1 update (one add_trace per trace)
// serializes every accumulator on the FP-add latency chain and walks
// the whole G x S table once per trace. This kernel restructures the
// fold the way the FALCON FFT/IFFT hardware work batches its butterfly
// arithmetic: traces are buffered in batches of B and each batch is
// folded as a tiled H^T.S matrix-multiply update into sum_ht -- per
// (guess, sample) cell a length-B dot product over contiguous double
// rows, which the 4-lane reduction below turns into four independent
// FMA chains (ILP/auto-vectorization friendly) while each sum_ht row is
// touched once per batch instead of once per trace.
//
// Canonical accumulation order (the determinism contract):
//   - batches are folded in arrival order; within a batch every
//     accumulator cell is updated exactly once, so the traversal order
//     of the guess/sample tiling never affects any cell's value --
//     tile sizes are pure performance knobs;
//   - every per-cell reduction over the batch runs in the fixed 4-lane
//     order of lanes4_* below (lane j takes elements j, j+4, j+8, ...;
//     lanes combine as (l0+l1)+(l2+l3)).
// Results are therefore a pure function of (trace stream, batch_traces)
// at any worker count and any tiling. batch_traces = 1 degenerates to
// the exact historical per-trace fold order (the "naive" reference the
// equivalence tests and bench_cpa_kernel compare against); other batch
// sizes differ from it only by the documented <=ULP-level reassociation
// inside each batch.
//
// Numerical stability (the cancellation bugfix): all sums are
// accumulated over SHIFTED data -- the first trace folded becomes the
// reference (ref_h per guess, ref_t per sample) and every later value
// enters as (x - ref). Pearson correlation is invariant under the
// shift, but the one-pass moment forms dn*sum2 - sum*sum no longer
// cancel catastrophically when traces carry a large DC offset (samples
// ~ 1e7 +- HW used to drive var_t negative and silently zero r).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fd::attack {

inline constexpr std::size_t kDefaultCpaBatch = 64;

// --- fixed-order reduction primitives -------------------------------------
//
// Four independent accumulator lanes over the index stream (lane j sums
// elements j, j+4, j+8, ...), combined as (l0+l1)+(l2+l3). The order is
// part of the kernel's determinism contract: it depends only on n,
// never on alignment, tiling, or the surrounding call site.

[[nodiscard]] double lanes4_sum(const double* x, std::size_t n);
[[nodiscard]] double lanes4_sumsq(const double* x, std::size_t n);
[[nodiscard]] double lanes4_dot(const double* a, const double* b, std::size_t n);

// Fused per-guess fold over one batch/block: sh = sum h, sh2 = sum h^2,
// sht = sum h*t, all in the same 4-lane order.
struct HFold {
  double sh = 0.0;
  double sh2 = 0.0;
  double sht = 0.0;
};
[[nodiscard]] HFold lanes4_fold_h(const double* h, const double* t, std::size_t n);

// Pearson r of one sample column against one guess's hypotheses, from
// the shifted moments sh = sum h, sh2 = sum h^2, sht = sum h*t and the
// column's shifted sum / dn*var form; 0 when either side is constant.
// The one scoring expression of StreamingScan, for every model kind.
[[nodiscard]] double scan_pearson(double dn, double sh, double sh2, double sht, double col_sum,
                                  double col_var);

// --- runtime SIMD dispatch -------------------------------------------------
//
// lanes4_* dispatch at runtime to the widest implementation whose
// arithmetic is BIT-IDENTICAL to the scalar reference. On x86-64 the
// AVX2 path keeps the four lanes in one 4-double vector register (the
// register IS lanes l0..l3: same j, j+4, j+8 stride, same
// (l0+l1)+(l2+l3) combine, explicit mul-then-add intrinsics, and this
// file is built with -ffp-contract=off, so no mul/add pair is fused).
// On aarch64 a NEON path splits the lanes across two 2-double registers
// the same way. The AVX-512 level (avx512f + avx512dq + avx512vpopcntdq)
// runs the AVX2 lanes4_* code and differs only in hypothesis_scan_scores,
// which it runs eight guesses wide with a native 64-bit popcount. The
// choice is resolved once, on first use, from the FD_CPA_KERNEL
// environment variable ("scalar", "avx2", "avx512", "neon") followed by
// CPU detection; an unavailable or unknown request falls back to
// auto-detection.
enum class CpaSimd : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2, kAvx512 = 3 };

[[nodiscard]] const char* cpa_simd_name(CpaSimd kind);
// Whether this build + CPU can run `kind` at all.
[[nodiscard]] bool cpa_simd_available(CpaSimd kind);
// The implementation lanes4_* currently dispatch to.
[[nodiscard]] CpaSimd cpa_active_simd();
// Force a specific implementation (tests/bench). Returns false -- and
// changes nothing -- when `kind` is unavailable on this CPU/build.
bool cpa_force_simd(CpaSimd kind);
// Drop any forced choice and re-resolve from FD_CPA_KERNEL + CPU
// detection (also how tests exercise the env override).
void cpa_reset_simd();

// --- hypothesis scan -----------------------------------------------------------
//
// Every phase of the extend-and-prune attack scores a guess list against
// hypotheses of one of a few fixed shapes: the Hamming weight of an
// intermediate computed from the guess and per-trace known operands.
// Scoring them through a per-cell model callback made hypothesis
// generation the cost of the whole scan. This entry point generates the
// hypotheses of a block of guesses at once, one guess per 64-bit SIMD
// lane -- products, adds and popcounts are integer lane ops on known
// operands -- and folds them in the same pass (DESIGN.md sections 17, 22).
//
// A column's leak kind fixes how its hypothesis h(g, t) is computed from
// the guess g and the trace's operands a, b, c, d (M25 = 2^25 - 1; u32
// wraps modulo 2^32; products are exact 64-bit):
//   kProduct  popcount(g * a)                  hyp_low_mul_* / hyp_high_mul_*
//   kSign     (g != 0) xor (a != 0)            hyp_sign; a = known sign
//   kExpSum   popcount(u32(g + a - 2100))      hyp_exponent; a = known exponent
//   kZ1a      x = g & M25:                     hyp_low_add_z1a; a = y0, b = y1
//             popcount(u32(u32(x*a >> 25) + (x*b & M25)))
//   kZ1b      x = g | or:                      hyp_high_add_z1b; a = y0,
//             popcount(u32(b + (x*a & M25)))   b = z1a of the recovered x0
//   kZu       x = g | or, p = x*a:             hyp_high_add_zu; a = y0, b = y1,
//             popcount(x*b + u32(d + (p >> 25))  c = z1a and d = prod_lh >> 25
//                      + (u32(c + (p & M25)) >> 25))   of the recovered x0
// The high-prune kinds take the recovered low half x0 folded into the
// per-trace c = z1a / d = prod_lh >> 25 operands, so a lane needs only
// x1*y0 and x1*y1; `guess_or` carries x0's bits above its 25-bit half,
// which mul_mantissa_steps ORs into x1 (0 for any valid x0).
//
// Bit-identity contract: each guess's score is the exact sequence of
// IEEE-754 operations StreamingScan runs for a callback returning the
// same hypotheses. Per column, traces are folded in blocks of
// batch_traces; within a block trace b lands in lane b & 3 and lanes
// combine as (l0+l1)+(l2+l3) (the lanes4 program); block sums add in
// order; scan_pearson scores the column; column scores add in order and
// divide by the column count. Only sh and sh2 are accumulated as
// integers: every shifted hypothesis is an integer in [-64, 64], so the
// double sums of h and h^2 are exact in any order and equal the integer
// sums converted (exactly, below 2^51 -- sh2 <= 4096 * traces). A final
// block of guesses narrower than the lane width is padded with its last
// guess and the padding lanes' scores are discarded: per-guess scores
// are independent, so padding never changes a kept score.
enum class LeakKind : std::uint8_t { kProduct, kSign, kExpSum, kZ1a, kZ1b, kZu };

// How many of a column's operand arrays (a, b, c, d in order) `kind` reads.
[[nodiscard]] constexpr std::size_t leak_operands(LeakKind kind) {
  switch (kind) {
    case LeakKind::kZ1a:
    case LeakKind::kZ1b:
      return 2;
    case LeakKind::kZu:
      return 4;
    default:
      return 1;
  }
}

struct HypothesisColumn {
  LeakKind kind = LeakKind::kProduct;
  std::uint32_t guess_or = 0;              // kZ1b / kZu only
  const std::uint32_t* ops[4] = {};        // per-trace operands a, b, c, d
};

struct HypothesisColumns {
  const double* samples = nullptr;         // C columns x traces, shifted
  const HypothesisColumn* hyps = nullptr;  // C
  const double* col_sum = nullptr;         // C: shifted column sums
  const double* col_var = nullptr;         // C: dn*sum t^2 - (sum t)^2
  std::size_t columns = 0;
  std::size_t traces = 0;
  std::size_t batch_traces = 1;
};
// scores[i] = mean over the columns of scan_pearson for guesses[i].
void hypothesis_scan_scores(const HypothesisColumns& in, std::span<const std::uint32_t> guesses,
                            double* scores);

// --- kernel configuration -------------------------------------------------

struct CpaKernelConfig {
  // Traces buffered before a fold. Part of the statistics' identity
  // (reassociation within a batch): experiments hash it alongside the
  // seed. 1 = the naive per-trace reference fold.
  std::size_t batch_traces = kDefaultCpaBatch;
  // Tile heights of the blocked H^T.S update. Pure performance knobs:
  // every cell is updated once per batch regardless of tiling, so these
  // never change a single bit of the result.
  std::size_t guess_block = 32;
  std::size_t sample_block = 64;
};

// --- accumulated sufficient statistics ------------------------------------

// The five running sums of the Pearson fold over shifted data, plus the
// shift references captured from the first trace. Kept separate from
// the batching machinery so naive and blocked kernels write the same
// state and correlation() is a pure read.
struct CpaSums {
  std::size_t num_guesses = 0;
  std::size_t num_samples = 0;
  std::size_t traces = 0;  // folded + still buffered in the kernel
  bool have_ref = false;
  std::vector<double> ref_h, ref_t;      // first-trace shift references
  std::vector<double> sum_h, sum_h2;     // per guess (shifted)
  std::vector<double> sum_t, sum_t2;     // per sample (shifted)
  std::vector<double> sum_ht;            // guess-major G x S (shifted)

  void reset(std::size_t g, std::size_t s);

  // Pearson r over the shifted sums; 0 when either side is constant.
  // Only meaningful once the owning kernel has flushed its buffer.
  [[nodiscard]] double correlation(std::size_t guess, std::size_t sample) const;
};

// --- the batch-buffered kernel --------------------------------------------

// Buffers up to batch_traces (hypotheses, samples) pairs and folds
// full batches into a CpaSums. Traces are staged in arrival order
// (trace-contiguous rows -- streaming writes, since a scattered
// write-per-guess into the fold layout was the measured bottleneck of
// the whole fold) and transposed per batch, cache-blocked, into the
// row-per-guess / row-per-sample layout the lanes4_* reductions
// consume. The transpose is pure data movement: the shifted values and
// every reduction over them are computed exactly as before, so the
// staging layout can never change a bit. flush() folds a partial tail;
// the owner must flush before reading correlations.
class CpaBatchKernel {
 public:
  CpaBatchKernel(std::size_t num_guesses, std::size_t num_samples,
                 CpaKernelConfig config = {});

  // Buffers one trace (capturing the shift reference from the first)
  // and folds the batch when full. Throws std::invalid_argument unless
  // hypotheses.size() == G and samples.size() == S -- a hard failure in
  // every build mode (the old assert() read out of bounds on short
  // spans in release builds).
  void add_trace(CpaSums& sums, std::span<const double> hypotheses,
                 std::span<const float> samples);

  // Folds any buffered tail. Idempotent.
  void flush(CpaSums& sums);

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] const CpaKernelConfig& config() const { return cfg_; }

 private:
  void fold_batch(CpaSums& sums);

  std::size_t g_, s_;
  CpaKernelConfig cfg_;
  std::vector<double> hstage_;  // B rows x G, contiguous per trace
  std::vector<double> tstage_;  // B rows x S
  std::vector<double> hbuf_;    // G rows x B, row-contiguous over batch index
  std::vector<double> tbuf_;    // S rows x B
  std::size_t pending_ = 0;
};

}  // namespace fd::attack
