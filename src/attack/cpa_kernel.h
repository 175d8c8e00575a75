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
// runs the AVX2 lanes4_* code and differs only in product_scan_scores,
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

// --- product-hypothesis scan -------------------------------------------------
//
// The mantissa extend phases score 2^25 / 2^27 guesses against
// hypotheses of one fixed shape, h(g, t, c) = popcount(g * y[c][t]): the
// Hamming weight of a schoolbook partial product of the guessed
// mantissa half g with the known operand half y of trace t
// (hyp_low_mul_* / hyp_high_mul_*). Scoring them through a per-cell
// model callback made hypothesis generation the cost of the whole scan.
// This entry point generates the hypotheses of a block of guesses at
// once, one guess per SIMD lane -- the 32x32->64 product, its popcount
// and the shift by the first trace's hypothesis are integer lane ops on
// known operands -- and folds them in the same pass.
//
// Bit-identity contract: each guess's score is the exact sequence of
// IEEE-754 operations StreamingScan runs for a callback returning the
// same popcounts. Per column, traces are folded in blocks of
// batch_traces; within a block trace b lands in lane b & 3 and lanes
// combine as (l0+l1)+(l2+l3) (the lanes4 program); block sums add in
// order; scan_pearson scores the column; column scores add in order and
// divide by the column count. Only sh and sh2 are accumulated as
// integers: every shifted hypothesis is an integer in [-64, 64], so the
// double sums of h and h^2 are exact in any order and equal the integer
// sums converted (exactly, below 2^51 -- sh2 <= 4096 * traces).
struct ProductColumns {
  const double* samples = nullptr;             // C columns x traces, shifted
  const std::uint32_t* multipliers = nullptr;  // C columns x traces: y[c][t]
  const double* col_sum = nullptr;             // C: shifted column sums
  const double* col_var = nullptr;             // C: dn*sum t^2 - (sum t)^2
  std::size_t columns = 0;
  std::size_t traces = 0;
  std::size_t batch_traces = 1;
};
// scores[i] = mean over the columns of scan_pearson for guesses[i].
void product_scan_scores(const ProductColumns& in, std::span<const std::uint32_t> guesses,
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

// --- shard-fold merge and wire serde (fleet / distributed CPA) ------------
//
// A trace stream cut into shards can be folded shard-by-shard (each
// shard its own CpaSums, possibly in another process) and recombined:
// merge_cpa_sums rebases `src`'s shifted sums onto `dst`'s first-trace
// references with the exact cross-term expansion
//   sum (x - r_dst)   = sum (x - r_src)   + n*d
//   sum (x - r_dst)^2 = sum (x - r_src)^2 + 2d*sum(x - r_src) + n*d^2
//   (d = r_src - r_dst, per guess / per sample; sum_ht gains the
//    corresponding dh/dt cross terms)
// and accumulates in a fixed per-cell expression order. Merging is
// therefore a pure function of the shard decomposition: folding shards
// in shard-index order through merge_cpa_sums gives bit-identical sums
// whether the shard folds were produced in this process, on another
// thread (exec::parallel_reduce with this as the merge), or round-
// tripped through the fleet wire format -- the determinism pin of
// tests/test_fleet.cpp. The merged sums agree with the unsharded serial
// fold exactly in real arithmetic (ULP-level differences in floating
// point; the shard plan is part of the statistics' identity, like
// batch_traces). An empty `dst` adopts `src` wholesale. A shape
// mismatch returns false and leaves `dst` untouched: folds arrive off
// the fleet wire from peers we don't control, so the mismatch is a
// checked error in every build mode (it used to be assert()-only --
// out-of-bounds writes in release), and the coordinator surfaces it as
// a corrupt-frame worker failure.
[[nodiscard]] bool merge_cpa_sums(CpaSums& dst, const CpaSums& src);

// Byte-exact serde of a fold: every double travels as its raw IEEE-754
// bit pattern (little-endian), so deserialize(serialize(s)) == s bit
// for bit. `deserialize` reads one fold at `offset` (advanced past it
// on success) and returns false on truncated or malformed input --
// including headers no kernel can produce (have_ref inconsistent with
// traces, a trace count beyond any campaign, a non-empty fold with an
// empty shape), so garbage is rejected before merge_cpa_sums sees it.
void serialize_cpa_sums(std::vector<std::uint8_t>& out, const CpaSums& sums);
[[nodiscard]] bool deserialize_cpa_sums(std::span<const std::uint8_t> bytes,
                                        std::size_t& offset, CpaSums& out);

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
