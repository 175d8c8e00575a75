#include "attack/cpa_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define FD_CPA_HAVE_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define FD_CPA_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace fd::attack {

// --- fixed-order reduction primitives -------------------------------------
//
// Every implementation below runs the SAME abstract program: four
// accumulator lanes over the index stream (lane j sums elements j,
// j+4, j+8, ...), a scalar tail that tops up lanes 0..2, and the fixed
// (l0+l1)+(l2+l3) combine. The SIMD variants only change WHERE the
// lanes live (one AVX2 register / two NEON registers instead of four
// scalar registers), never the sequence of IEEE-754 operations each
// lane performs -- multiplies and adds stay separate instructions (the
// avx2/neon targets don't enable fused multiply-add, and this file is
// built with -ffp-contract=off besides), so all paths are bit-identical
// and the dispatch choice is a pure wall-clock knob.

namespace {

double scalar_sum(const double* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  if (i < n) l0 += x[i];
  if (i + 1 < n) l1 += x[i + 1];
  if (i + 2 < n) l2 += x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double scalar_sumsq(const double* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i] * x[i];
    l1 += x[i + 1] * x[i + 1];
    l2 += x[i + 2] * x[i + 2];
    l3 += x[i + 3] * x[i + 3];
  }
  if (i < n) l0 += x[i] * x[i];
  if (i + 1 < n) l1 += x[i + 1] * x[i + 1];
  if (i + 2 < n) l2 += x[i + 2] * x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double scalar_dot(const double* a, const double* b, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  if (i < n) l0 += a[i] * b[i];
  if (i + 1 < n) l1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) l2 += a[i + 2] * b[i + 2];
  return (l0 + l1) + (l2 + l3);
}

HFold scalar_fold_h(const double* h, const double* t, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += h[i];
    s1 += h[i + 1];
    s2 += h[i + 2];
    s3 += h[i + 3];
    q0 += h[i] * h[i];
    q1 += h[i + 1] * h[i + 1];
    q2 += h[i + 2] * h[i + 2];
    q3 += h[i + 3] * h[i + 3];
    d0 += h[i] * t[i];
    d1 += h[i + 1] * t[i + 1];
    d2 += h[i + 2] * t[i + 2];
    d3 += h[i + 3] * t[i + 3];
  }
  if (i < n) {
    s0 += h[i];
    q0 += h[i] * h[i];
    d0 += h[i] * t[i];
  }
  if (i + 1 < n) {
    s1 += h[i + 1];
    q1 += h[i + 1] * h[i + 1];
    d1 += h[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    s2 += h[i + 2];
    q2 += h[i + 2] * h[i + 2];
    d2 += h[i + 2] * t[i + 2];
  }
  HFold out;
  out.sh = (s0 + s1) + (s2 + s3);
  out.sh2 = (q0 + q1) + (q2 + q3);
  out.sht = (d0 + d1) + (d2 + d3);
  return out;
}

// --- batched-cell wrappers -------------------------------------------------
//
// The fold's hot loop updates many independent cells per batch: one
// sum_ht dot per (guess, sample) and one HFold per guess. A single-cell
// reduction is latency-bound (one FP-add dependency chain per lane), so
// the dispatch table also carries multi-cell entry points that keep
// several cells' chains in flight at once. Each cell's reduction is
// STILL the exact lanes4_* program -- the wrappers only interleave
// whole-cell computations, never the arithmetic inside one -- so every
// implementation of dot_cols/fold_h_rows is bit-identical to looping
// the single-cell primitive.

// out[c] += dot(h, t + c*t_stride) for c in [0, cols).
void scalar_dot_cols(const double* h, const double* t, std::size_t t_stride,
                     std::size_t cols, std::size_t n, double* out) {
  for (std::size_t c = 0; c < cols; ++c) out[c] += scalar_dot(h, t + c * t_stride, n);
}

// Cache-blocked transpose of an n x cols trace-major staging area into
// the cols x dst_stride fold layout (row per guess/sample, contiguous
// over the batch index). Pure data movement -- no arithmetic -- so no
// implementation of it can change a bit of any reduction; it is in the
// dispatch table purely because the batch fold spends real time here.
void scalar_transpose(const double* src, std::size_t n, std::size_t cols, double* dst,
                      std::size_t dst_stride) {
  constexpr std::size_t kTile = 16;
  for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
    const std::size_t c1 = std::min(cols, c0 + kTile);
    for (std::size_t r0 = 0; r0 < n; r0 += kTile) {
      const std::size_t r1 = std::min(n, r0 + kTile);
      for (std::size_t c = c0; c < c1; ++c) {
        double* out = dst + c * dst_stride;
        for (std::size_t r = r0; r < r1; ++r) out[r] = src[r * cols + c];
      }
    }
  }
}

// Per row r: sh[r] += fold.sh, sh2[r] += fold.sh2, sht[r*sht_stride] +=
// fold.sht of HFold(h + r*h_stride, t).
void scalar_fold_h_rows(const double* h, std::size_t h_stride, std::size_t rows,
                        const double* t, std::size_t n, double* sh, double* sh2, double* sht,
                        std::size_t sht_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const HFold f = scalar_fold_h(h + r * h_stride, t, n);
    sh[r] += f.sh;
    sh2[r] += f.sh2;
    sht[r * sht_stride] += f.sht;
  }
}

// Single-sample-column batch fold straight off the trace-major staging
// area (row p = trace p's shifted hypotheses, stride `guesses`; t[p] =
// trace p's shifted sample). The default attack shape is G x 1, where
// transposing the staging area costs as much as the fold itself -- this
// entry point skips the transpose entirely. Per guess it is STILL the
// exact lanes4 program over the batch index: trace p lands in lane
// p & 3, lanes combine as (l0+l1)+(l2+l3). sh/sh2/sht are contiguous
// per guess (sum_ht is G x 1 here).
void scalar_fold_s1(const double* hs, std::size_t guesses, std::size_t n, const double* t,
                    double* sh, double* sh2, double* sht) {
  for (std::size_t g = 0; g < guesses; ++g) {
    double ls[4] = {0.0, 0.0, 0.0, 0.0};
    double lq[4] = {0.0, 0.0, 0.0, 0.0};
    double ld[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t p = 0; p < n; ++p) {
      const double v = hs[p * guesses + g];
      ls[p & 3] += v;
      lq[p & 3] += v * v;
      ld[p & 3] += v * t[p];
    }
    sh[g] += (ls[0] + ls[1]) + (ls[2] + ls[3]);
    sh2[g] += (lq[0] + lq[1]) + (lq[2] + lq[3]);
    sht[g] += (ld[0] + ld[1]) + (ld[2] + ld[3]);
  }
}

// The product-scan reference: per guess, literally StreamingScan's
// callback fold with the popcount model inlined -- hypotheses shifted by
// the first trace's, each block through scalar_fold_h, then
// scan_pearson. The vector bodies below must reproduce it bit for bit.
void scalar_product_scores(const ProductColumns& in, const std::uint32_t* guesses,
                           std::size_t count, double* scores) {
  const std::size_t d = in.traces;
  const std::size_t bsz = in.batch_traces;
  const double dn = static_cast<double>(d);
  std::vector<double> hblk(bsz);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t g = guesses[i];
    double score_sum = 0.0;
    for (std::size_t c = 0; c < in.columns; ++c) {
      const std::uint32_t* y = in.multipliers + c * d;
      const double* col = in.samples + c * d;
      double sh = 0.0, sh2 = 0.0, sht = 0.0;
      if (d > 0) {
        const double h0 = std::popcount(g * y[0]);
        for (std::size_t t0 = 0; t0 < d; t0 += bsz) {
          const std::size_t n = std::min(bsz, d - t0);
          for (std::size_t b = 0; b < n; ++b) hblk[b] = std::popcount(g * y[t0 + b]) - h0;
          const HFold f = scalar_fold_h(hblk.data(), col + t0, n);
          sh += f.sh;
          sh2 += f.sh2;
          sht += f.sht;
        }
      }
      score_sum += scan_pearson(dn, sh, sh2, sht, in.col_sum[c], in.col_var[c]);
    }
    scores[i] = score_sum / static_cast<double>(in.columns);
  }
}

#if defined(FD_CPA_HAVE_AVX2)

// One __m256d register IS the four lanes: _mm256_loadu_pd(x + i) puts
// x[i+j] into lane j, exactly the scalar assignment. Only
// _mm256_add_pd / _mm256_mul_pd are used -- target("avx2") does not
// enable FMA, so the compiler has no fused instruction to contract
// into. The tail reuses the extracted lanes so the scalar top-up is
// literally the same code as the reference.

__attribute__((target("avx2"))) double avx2_sum(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += x[i];
  if (i + 1 < n) l[1] += x[i + 1];
  if (i + 2 < n) l[2] += x[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

__attribute__((target("avx2"))) double avx2_sumsq(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += x[i] * x[i];
  if (i + 1 < n) l[1] += x[i + 1] * x[i + 1];
  if (i + 2 < n) l[2] += x[i + 2] * x[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

__attribute__((target("avx2"))) double avx2_dot(const double* a, const double* b,
                                                std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += a[i] * b[i];
  if (i + 1 < n) l[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) l[2] += a[i + 2] * b[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

__attribute__((target("avx2"))) HFold avx2_fold_h(const double* h, const double* t,
                                                  std::size_t n) {
  __m256d s = _mm256_setzero_pd();
  __m256d q = _mm256_setzero_pd();
  __m256d d = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d hv = _mm256_loadu_pd(h + i);
    const __m256d tv = _mm256_loadu_pd(t + i);
    s = _mm256_add_pd(s, hv);
    q = _mm256_add_pd(q, _mm256_mul_pd(hv, hv));
    d = _mm256_add_pd(d, _mm256_mul_pd(hv, tv));
  }
  alignas(32) double ls[4], lq[4], ld[4];
  _mm256_store_pd(ls, s);
  _mm256_store_pd(lq, q);
  _mm256_store_pd(ld, d);
  if (i < n) {
    ls[0] += h[i];
    lq[0] += h[i] * h[i];
    ld[0] += h[i] * t[i];
  }
  if (i + 1 < n) {
    ls[1] += h[i + 1];
    lq[1] += h[i + 1] * h[i + 1];
    ld[1] += h[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    ls[2] += h[i + 2];
    lq[2] += h[i + 2] * h[i + 2];
    ld[2] += h[i + 2] * t[i + 2];
  }
  HFold out;
  out.sh = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  out.sh2 = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  out.sht = (ld[0] + ld[1]) + (ld[2] + ld[3]);
  return out;
}

// Horizontal finish of one cell's accumulator: scalar tail into lanes
// 0..2 (identical to avx2_dot's tail), then the fixed combine.
__attribute__((target("avx2"))) inline double avx2_finish_dot(__m256d acc, const double* a,
                                                              const double* b, std::size_t i,
                                                              std::size_t n) {
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += a[i] * b[i];
  if (i + 1 < n) l[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) l[2] += a[i + 2] * b[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

// Four sample columns at a time: one h load feeds four independent
// mul+add chains, so the FP-add latency that serializes a single cell's
// chain is hidden across cells (and the h row is loaded once per group
// of four instead of once per cell). Each column's accumulator sees the
// exact avx2_dot instruction sequence.
__attribute__((target("avx2"))) void avx2_dot_cols(const double* h, const double* t,
                                                   std::size_t t_stride, std::size_t cols,
                                                   std::size_t n, double* out) {
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const double* t0 = t + c * t_stride;
    const double* t1 = t0 + t_stride;
    const double* t2 = t1 + t_stride;
    const double* t3 = t2 + t_stride;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d hv = _mm256_loadu_pd(h + i);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(hv, _mm256_loadu_pd(t0 + i)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(hv, _mm256_loadu_pd(t1 + i)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(hv, _mm256_loadu_pd(t2 + i)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(hv, _mm256_loadu_pd(t3 + i)));
    }
    if (i == n) {
      // Full-batch case (no scalar tail): transpose the four lane
      // registers so one vector add sequence computes all four columns'
      // (l0+l1)+(l2+l3) combines at once -- per column the identical
      // arithmetic as avx2_finish_dot, minus four scalar horizontal
      // reductions that otherwise cost as much as the dot loop itself.
      const __m256d u0 = _mm256_unpacklo_pd(a0, a1);
      const __m256d u1 = _mm256_unpackhi_pd(a0, a1);
      const __m256d u2 = _mm256_unpacklo_pd(a2, a3);
      const __m256d u3 = _mm256_unpackhi_pd(a2, a3);
      const __m256d l0 = _mm256_permute2f128_pd(u0, u2, 0x20);
      const __m256d l1 = _mm256_permute2f128_pd(u1, u3, 0x20);
      const __m256d l2 = _mm256_permute2f128_pd(u0, u2, 0x31);
      const __m256d l3 = _mm256_permute2f128_pd(u1, u3, 0x31);
      const __m256d r = _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3));
      _mm256_storeu_pd(out + c, _mm256_add_pd(_mm256_loadu_pd(out + c), r));
    } else {
      out[c] += avx2_finish_dot(a0, h, t0, i, n);
      out[c + 1] += avx2_finish_dot(a1, h, t1, i, n);
      out[c + 2] += avx2_finish_dot(a2, h, t2, i, n);
      out[c + 3] += avx2_finish_dot(a3, h, t3, i, n);
    }
  }
  for (; c < cols; ++c) out[c] += avx2_dot(h, t + c * t_stride, n);
}

// Horizontal finish of one row's three accumulators (a lambda can't
// carry the target attribute, so this is a free helper).
__attribute__((target("avx2"))) inline void avx2_finish_fold(__m256d s, __m256d q, __m256d d,
                                                             const double* hr, const double* t,
                                                             std::size_t i, std::size_t n,
                                                             double& sh, double& sh2,
                                                             double& sht) {
  alignas(32) double ls[4], lq[4], ld[4];
  _mm256_store_pd(ls, s);
  _mm256_store_pd(lq, q);
  _mm256_store_pd(ld, d);
  if (i < n) {
    ls[0] += hr[i];
    lq[0] += hr[i] * hr[i];
    ld[0] += hr[i] * t[i];
  }
  if (i + 1 < n) {
    ls[1] += hr[i + 1];
    lq[1] += hr[i + 1] * hr[i + 1];
    ld[1] += hr[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    ls[2] += hr[i + 2];
    lq[2] += hr[i + 2] * hr[i + 2];
    ld[2] += hr[i + 2] * t[i + 2];
  }
  sh += (ls[0] + ls[1]) + (ls[2] + ls[3]);
  sh2 += (lq[0] + lq[1]) + (lq[2] + lq[3]);
  sht += (ld[0] + ld[1]) + (ld[2] + ld[3]);
}

// Two guess rows at a time against one shared t column: six
// independent accumulator chains (vs three for a single row), same
// per-row arithmetic as avx2_fold_h.
__attribute__((target("avx2"))) void avx2_fold_h_rows(const double* h, std::size_t h_stride,
                                                      std::size_t rows, const double* t,
                                                      std::size_t n, double* sh, double* sh2,
                                                      double* sht, std::size_t sht_stride) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* h0 = h + r * h_stride;
    const double* h1 = h0 + h_stride;
    __m256d s0 = _mm256_setzero_pd(), q0 = _mm256_setzero_pd(), d0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d tv = _mm256_loadu_pd(t + i);
      const __m256d h0v = _mm256_loadu_pd(h0 + i);
      const __m256d h1v = _mm256_loadu_pd(h1 + i);
      s0 = _mm256_add_pd(s0, h0v);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(h0v, h0v));
      d0 = _mm256_add_pd(d0, _mm256_mul_pd(h0v, tv));
      s1 = _mm256_add_pd(s1, h1v);
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(h1v, h1v));
      d1 = _mm256_add_pd(d1, _mm256_mul_pd(h1v, tv));
    }
    avx2_finish_fold(s0, q0, d0, h0, t, i, n, sh[r], sh2[r], sht[r * sht_stride]);
    avx2_finish_fold(s1, q1, d1, h1, t, i, n, sh[r + 1], sh2[r + 1],
                     sht[(r + 1) * sht_stride]);
  }
  if (r < rows) {
    const HFold f = avx2_fold_h(h + r * h_stride, t, n);
    sh[r] += f.sh;
    sh2[r] += f.sh2;
    sht[r * sht_stride] += f.sht;
  }
}

// Trace-major G x 1 fold (see scalar_fold_s1): four guesses per pass,
// the four lanes of each guess held in four separate registers -- the
// register index is the guess, the register NAME is the lane. The p
// loop is unrolled by 4 so each trace row updates its statically-known
// lane (p stays a multiple of 4, so row p+k is lane k, matching the
// scalar p & 3 assignment); 12 accumulators live across the whole
// batch with no memory traffic until the per-guess combine at the end.
__attribute__((target("avx2"))) void avx2_fold_s1(const double* hs, std::size_t guesses,
                                                  std::size_t n, const double* t, double* sh,
                                                  double* sh2, double* sht) {
  std::size_t g = 0;
  for (; g + 4 <= guesses; g += 4) {
    const double* col = hs + g;
    __m256d s0 = _mm256_setzero_pd(), q0 = _mm256_setzero_pd(), d0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd(), q2 = _mm256_setzero_pd(), d2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd(), q3 = _mm256_setzero_pd(), d3 = _mm256_setzero_pd();
    std::size_t p = 0;
    for (; p + 4 <= n; p += 4) {
      const double* row = col + p * guesses;
      const __m256d h0 = _mm256_loadu_pd(row);
      const __m256d t0 = _mm256_set1_pd(t[p]);
      s0 = _mm256_add_pd(s0, h0);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(h0, h0));
      d0 = _mm256_add_pd(d0, _mm256_mul_pd(h0, t0));
      const __m256d h1 = _mm256_loadu_pd(row + guesses);
      const __m256d t1 = _mm256_set1_pd(t[p + 1]);
      s1 = _mm256_add_pd(s1, h1);
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(h1, h1));
      d1 = _mm256_add_pd(d1, _mm256_mul_pd(h1, t1));
      const __m256d h2 = _mm256_loadu_pd(row + 2 * guesses);
      const __m256d t2 = _mm256_set1_pd(t[p + 2]);
      s2 = _mm256_add_pd(s2, h2);
      q2 = _mm256_add_pd(q2, _mm256_mul_pd(h2, h2));
      d2 = _mm256_add_pd(d2, _mm256_mul_pd(h2, t2));
      const __m256d h3 = _mm256_loadu_pd(row + 3 * guesses);
      const __m256d t3 = _mm256_set1_pd(t[p + 3]);
      s3 = _mm256_add_pd(s3, h3);
      q3 = _mm256_add_pd(q3, _mm256_mul_pd(h3, h3));
      d3 = _mm256_add_pd(d3, _mm256_mul_pd(h3, t3));
    }
    // Tail traces land in lanes 0..2 in order (p is a multiple of 4).
    if (p < n) {
      const __m256d hv = _mm256_loadu_pd(col + p * guesses);
      const __m256d tb = _mm256_set1_pd(t[p]);
      s0 = _mm256_add_pd(s0, hv);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(hv, hv));
      d0 = _mm256_add_pd(d0, _mm256_mul_pd(hv, tb));
    }
    if (p + 1 < n) {
      const __m256d hv = _mm256_loadu_pd(col + (p + 1) * guesses);
      const __m256d tb = _mm256_set1_pd(t[p + 1]);
      s1 = _mm256_add_pd(s1, hv);
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(hv, hv));
      d1 = _mm256_add_pd(d1, _mm256_mul_pd(hv, tb));
    }
    if (p + 2 < n) {
      const __m256d hv = _mm256_loadu_pd(col + (p + 2) * guesses);
      const __m256d tb = _mm256_set1_pd(t[p + 2]);
      s2 = _mm256_add_pd(s2, hv);
      q2 = _mm256_add_pd(q2, _mm256_mul_pd(hv, hv));
      d2 = _mm256_add_pd(d2, _mm256_mul_pd(hv, tb));
    }
    // Per guess slot the fixed (l0+l1)+(l2+l3) combine, as a vector op.
    const __m256d shv = _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3));
    const __m256d sh2v = _mm256_add_pd(_mm256_add_pd(q0, q1), _mm256_add_pd(q2, q3));
    const __m256d shtv = _mm256_add_pd(_mm256_add_pd(d0, d1), _mm256_add_pd(d2, d3));
    _mm256_storeu_pd(sh + g, _mm256_add_pd(_mm256_loadu_pd(sh + g), shv));
    _mm256_storeu_pd(sh2 + g, _mm256_add_pd(_mm256_loadu_pd(sh2 + g), sh2v));
    _mm256_storeu_pd(sht + g, _mm256_add_pd(_mm256_loadu_pd(sht + g), shtv));
  }
  // Remainder guesses: the scalar 4-lane loop.
  for (; g < guesses; ++g) {
    double ls[4] = {0.0, 0.0, 0.0, 0.0};
    double lq[4] = {0.0, 0.0, 0.0, 0.0};
    double ld[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t p = 0; p < n; ++p) {
      const double v = hs[p * guesses + g];
      ls[p & 3] += v;
      lq[p & 3] += v * v;
      ld[p & 3] += v * t[p];
    }
    sh[g] += (ls[0] + ls[1]) + (ls[2] + ls[3]);
    sh2[g] += (lq[0] + lq[1]) + (lq[2] + lq[3]);
    sht[g] += (ld[0] + ld[1]) + (ld[2] + ld[3]);
  }
}

// 4x4 register-blocked transpose (unpack + 128-bit permute), scalar
// edges. Pure data movement, same result as scalar_transpose.
__attribute__((target("avx2"))) void avx2_transpose(const double* src, std::size_t n,
                                                    std::size_t cols, double* dst,
                                                    std::size_t dst_stride) {
  std::size_t r0 = 0;
  for (; r0 + 4 <= n; r0 += 4) {
    const double* s0 = src + r0 * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d a = _mm256_loadu_pd(s0 + c);
      const __m256d b = _mm256_loadu_pd(s0 + cols + c);
      const __m256d cc = _mm256_loadu_pd(s0 + 2 * cols + c);
      const __m256d d = _mm256_loadu_pd(s0 + 3 * cols + c);
      const __m256d t0 = _mm256_unpacklo_pd(a, b);
      const __m256d t1 = _mm256_unpackhi_pd(a, b);
      const __m256d t2 = _mm256_unpacklo_pd(cc, d);
      const __m256d t3 = _mm256_unpackhi_pd(cc, d);
      _mm256_storeu_pd(dst + c * dst_stride + r0, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(dst + (c + 1) * dst_stride + r0, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(dst + (c + 2) * dst_stride + r0, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(dst + (c + 3) * dst_stride + r0, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    for (; c < cols; ++c) {
      double* out = dst + c * dst_stride;
      for (std::size_t r = r0; r < r0 + 4; ++r) out[r] = src[r * cols + c];
    }
  }
  for (; r0 < n; ++r0) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * dst_stride + r0] = src[r0 * cols + c];
  }
}

// Product scan, one guess per 64-bit lane. _mm256_mul_epu32 multiplies
// the low 32 bits of each lane: the exact 64-bit product of two uint32
// operands (so y is broadcast as a 32-bit load; the high dwords are
// never read). The popcount is the nibble-table method (two pshufb
// lookups, a byte add, psadbw over each lane's eight bytes).
__attribute__((target("avx2"))) inline __m256i avx2_popcount64(__m256i v) {
  const __m256i table = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble));
  const __m256i hi =
      _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

// Exact int64 -> double for |x| < 2^51: biased into [2^52, 2^53), where
// the double's ulp is 1, then unbiased by an exact subtraction.
__attribute__((target("avx2"))) inline __m256d avx2_small_to_pd(__m256i v) {
  const __m256d bias = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(v, _mm256_castpd_si256(bias))), bias);
}

// popcount(g * y) for the four guesses g in gv.
__attribute__((target("avx2"))) inline __m256i avx2_product_popcount(__m256i gv,
                                                                     std::uint32_t y) {
  return avx2_popcount64(_mm256_mul_epu32(gv, _mm256_set1_epi32(static_cast<int>(y))));
}

// Trace t for four guesses: shifted hypothesis h = pc - pc0 into the
// integer moment sums s/q, h*t into lane accumulator `lane`.
__attribute__((target("avx2"))) inline void avx2_product_step(__m256i gv, __m256i pc0,
                                                              std::uint32_t y, double t,
                                                              __m256i& s, __m256i& q,
                                                              __m256d& lane) {
  const __m256i h = _mm256_sub_epi64(avx2_product_popcount(gv, y), pc0);
  s = _mm256_add_epi64(s, h);
  q = _mm256_add_epi64(q, _mm256_mul_epi32(h, h));
  lane = _mm256_add_pd(lane, _mm256_mul_pd(avx2_small_to_pd(h), _mm256_set1_pd(t)));
}

// scan_pearson, four guesses at once (correctly rounded sqrt and divide;
// a non-positive denominator masks the lane to +0.0).
__attribute__((target("avx2"))) inline __m256d avx2_pearson(__m256d dn, __m256d sh, __m256d sh2,
                                                           __m256d sht, double col_sum,
                                                           double col_var) {
  const __m256d var_h = _mm256_sub_pd(_mm256_mul_pd(dn, sh2), _mm256_mul_pd(sh, sh));
  const __m256d cov =
      _mm256_sub_pd(_mm256_mul_pd(dn, sht), _mm256_mul_pd(sh, _mm256_set1_pd(col_sum)));
  const __m256d denom = _mm256_mul_pd(var_h, _mm256_set1_pd(col_var));
  const __m256d r = _mm256_div_pd(cov, _mm256_sqrt_pd(denom));
  return _mm256_and_pd(_mm256_cmp_pd(denom, _mm256_setzero_pd(), _CMP_GT_OQ), r);
}

__attribute__((target("avx2"))) void avx2_product_scores(const ProductColumns& in,
                                                         const std::uint32_t* guesses,
                                                         std::size_t count, double* scores) {
  const std::size_t d = in.traces;
  const std::size_t bsz = in.batch_traces;
  const __m256d dn = _mm256_set1_pd(static_cast<double>(d));
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i gv =
        _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(guesses + i)));
    __m256d score_sum = zero;
    for (std::size_t c = 0; c < in.columns; ++c) {
      const std::uint32_t* y = in.multipliers + c * d;
      const double* col = in.samples + c * d;
      __m256i s = _mm256_setzero_si256();
      __m256i q = _mm256_setzero_si256();
      __m256d sht = zero;
      if (d > 0) {
        const __m256i pc0 = avx2_product_popcount(gv, y[0]);
        for (std::size_t t0 = 0; t0 < d; t0 += bsz) {
          const std::size_t end = t0 + std::min(bsz, d - t0);
          __m256d l0 = zero, l1 = zero, l2 = zero, l3 = zero;
          std::size_t t = t0;
          for (; t + 4 <= end; t += 4) {
            avx2_product_step(gv, pc0, y[t], col[t], s, q, l0);
            avx2_product_step(gv, pc0, y[t + 1], col[t + 1], s, q, l1);
            avx2_product_step(gv, pc0, y[t + 2], col[t + 2], s, q, l2);
            avx2_product_step(gv, pc0, y[t + 3], col[t + 3], s, q, l3);
          }
          if (t < end) avx2_product_step(gv, pc0, y[t], col[t], s, q, l0);
          if (t + 1 < end) avx2_product_step(gv, pc0, y[t + 1], col[t + 1], s, q, l1);
          if (t + 2 < end) avx2_product_step(gv, pc0, y[t + 2], col[t + 2], s, q, l2);
          sht = _mm256_add_pd(sht, _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3)));
        }
      }
      score_sum = _mm256_add_pd(score_sum, avx2_pearson(dn, avx2_small_to_pd(s),
                                                        avx2_small_to_pd(q), sht,
                                                        in.col_sum[c], in.col_var[c]));
    }
    _mm256_storeu_pd(scores + i,
                     _mm256_div_pd(score_sum, _mm256_set1_pd(static_cast<double>(in.columns))));
  }
  scalar_product_scores(in, guesses + i, count - i, scores + i);
}

// The AVX-512 level: the same lane program eight guesses wide, with the
// native 64-bit popcount and int64 -> double conversion. (GCC 12's
// avx512fintrin.h self-initializes the pass-through operand of its
// unmasked intrinsics, which -Wmaybe-uninitialized flags at every use.)
#define FD_AVX512_TARGET "avx512f,avx512dq,avx512vpopcntdq"
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target(FD_AVX512_TARGET))) inline __m512i avx512_product_popcount(
    __m512i gv, std::uint32_t y) {
  return _mm512_popcnt_epi64(_mm512_mul_epu32(gv, _mm512_set1_epi32(static_cast<int>(y))));
}

__attribute__((target(FD_AVX512_TARGET))) inline void avx512_product_step(
    __m512i gv, __m512i pc0, std::uint32_t y, double t, __m512i& s, __m512i& q, __m512d& lane) {
  const __m512i h = _mm512_sub_epi64(avx512_product_popcount(gv, y), pc0);
  s = _mm512_add_epi64(s, h);
  q = _mm512_add_epi64(q, _mm512_mul_epi32(h, h));
  lane = _mm512_add_pd(lane, _mm512_mul_pd(_mm512_cvtepi64_pd(h), _mm512_set1_pd(t)));
}

__attribute__((target(FD_AVX512_TARGET))) void avx512_product_scores(
    const ProductColumns& in, const std::uint32_t* guesses, std::size_t count, double* scores) {
  const std::size_t d = in.traces;
  const std::size_t bsz = in.batch_traces;
  const __m512d dn = _mm512_set1_pd(static_cast<double>(d));
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512i gv = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(guesses + i)));
    __m512d score_sum = zero;
    for (std::size_t c = 0; c < in.columns; ++c) {
      const std::uint32_t* y = in.multipliers + c * d;
      const double* col = in.samples + c * d;
      __m512i s = _mm512_setzero_si512();
      __m512i q = _mm512_setzero_si512();
      __m512d sht = zero;
      if (d > 0) {
        const __m512i pc0 = avx512_product_popcount(gv, y[0]);
        for (std::size_t t0 = 0; t0 < d; t0 += bsz) {
          const std::size_t end = t0 + std::min(bsz, d - t0);
          __m512d l0 = zero, l1 = zero, l2 = zero, l3 = zero;
          std::size_t t = t0;
          for (; t + 4 <= end; t += 4) {
            avx512_product_step(gv, pc0, y[t], col[t], s, q, l0);
            avx512_product_step(gv, pc0, y[t + 1], col[t + 1], s, q, l1);
            avx512_product_step(gv, pc0, y[t + 2], col[t + 2], s, q, l2);
            avx512_product_step(gv, pc0, y[t + 3], col[t + 3], s, q, l3);
          }
          if (t < end) avx512_product_step(gv, pc0, y[t], col[t], s, q, l0);
          if (t + 1 < end) avx512_product_step(gv, pc0, y[t + 1], col[t + 1], s, q, l1);
          if (t + 2 < end) avx512_product_step(gv, pc0, y[t + 2], col[t + 2], s, q, l2);
          sht = _mm512_add_pd(sht, _mm512_add_pd(_mm512_add_pd(l0, l1), _mm512_add_pd(l2, l3)));
        }
      }
      const __m512d sh = _mm512_cvtepi64_pd(s);
      const __m512d sh2 = _mm512_cvtepi64_pd(q);
      const __m512d var_h = _mm512_sub_pd(_mm512_mul_pd(dn, sh2), _mm512_mul_pd(sh, sh));
      const __m512d cov = _mm512_sub_pd(_mm512_mul_pd(dn, sht),
                                        _mm512_mul_pd(sh, _mm512_set1_pd(in.col_sum[c])));
      const __m512d denom = _mm512_mul_pd(var_h, _mm512_set1_pd(in.col_var[c]));
      const __m512d r = _mm512_maskz_div_pd(_mm512_cmp_pd_mask(denom, zero, _CMP_GT_OQ), cov,
                                            _mm512_sqrt_pd(denom));
      score_sum = _mm512_add_pd(score_sum, r);
    }
    _mm512_storeu_pd(scores + i,
                     _mm512_div_pd(score_sum, _mm512_set1_pd(static_cast<double>(in.columns))));
  }
  avx2_product_scores(in, guesses + i, count - i, scores + i);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FD_CPA_HAVE_AVX2

#if defined(FD_CPA_HAVE_NEON)

// Lanes 0/1 live in one float64x2_t, lanes 2/3 in another; loads at
// x+i and x+i+2 reproduce the scalar lane assignment. vaddq/vmulq only
// (no vfmaq), same scalar tail, same combine.

double neon_sum(const double* x, std::size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vld1q_f64(x + i));
    a23 = vaddq_f64(a23, vld1q_f64(x + i + 2));
  }
  double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
  double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
  if (i < n) l0 += x[i];
  if (i + 1 < n) l1 += x[i + 1];
  if (i + 2 < n) l2 += x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double neon_sumsq(const double* x, std::size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t v01 = vld1q_f64(x + i);
    const float64x2_t v23 = vld1q_f64(x + i + 2);
    a01 = vaddq_f64(a01, vmulq_f64(v01, v01));
    a23 = vaddq_f64(a23, vmulq_f64(v23, v23));
  }
  double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
  double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
  if (i < n) l0 += x[i] * x[i];
  if (i + 1 < n) l1 += x[i + 1] * x[i + 1];
  if (i + 2 < n) l2 += x[i + 2] * x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double neon_dot(const double* a, const double* b, std::size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    a23 = vaddq_f64(a23, vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
  double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
  if (i < n) l0 += a[i] * b[i];
  if (i + 1 < n) l1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) l2 += a[i + 2] * b[i + 2];
  return (l0 + l1) + (l2 + l3);
}

HFold neon_fold_h(const double* h, const double* t, std::size_t n) {
  float64x2_t s01 = vdupq_n_f64(0.0), s23 = vdupq_n_f64(0.0);
  float64x2_t q01 = vdupq_n_f64(0.0), q23 = vdupq_n_f64(0.0);
  float64x2_t d01 = vdupq_n_f64(0.0), d23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t h01 = vld1q_f64(h + i), h23 = vld1q_f64(h + i + 2);
    const float64x2_t t01 = vld1q_f64(t + i), t23 = vld1q_f64(t + i + 2);
    s01 = vaddq_f64(s01, h01);
    s23 = vaddq_f64(s23, h23);
    q01 = vaddq_f64(q01, vmulq_f64(h01, h01));
    q23 = vaddq_f64(q23, vmulq_f64(h23, h23));
    d01 = vaddq_f64(d01, vmulq_f64(h01, t01));
    d23 = vaddq_f64(d23, vmulq_f64(h23, t23));
  }
  double ls[4] = {vgetq_lane_f64(s01, 0), vgetq_lane_f64(s01, 1), vgetq_lane_f64(s23, 0),
                  vgetq_lane_f64(s23, 1)};
  double lq[4] = {vgetq_lane_f64(q01, 0), vgetq_lane_f64(q01, 1), vgetq_lane_f64(q23, 0),
                  vgetq_lane_f64(q23, 1)};
  double ld[4] = {vgetq_lane_f64(d01, 0), vgetq_lane_f64(d01, 1), vgetq_lane_f64(d23, 0),
                  vgetq_lane_f64(d23, 1)};
  if (i < n) {
    ls[0] += h[i];
    lq[0] += h[i] * h[i];
    ld[0] += h[i] * t[i];
  }
  if (i + 1 < n) {
    ls[1] += h[i + 1];
    lq[1] += h[i + 1] * h[i + 1];
    ld[1] += h[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    ls[2] += h[i + 2];
    lq[2] += h[i + 2] * h[i + 2];
    ld[2] += h[i + 2] * t[i + 2];
  }
  HFold out;
  out.sh = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  out.sh2 = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  out.sht = (ld[0] + ld[1]) + (ld[2] + ld[3]);
  return out;
}

// Two sample columns at a time (the NEON half-width analogue of the
// AVX2 four-column group); per-column arithmetic is exactly neon_dot.
void neon_dot_cols(const double* h, const double* t, std::size_t t_stride, std::size_t cols,
                   std::size_t n, double* out) {
  std::size_t c = 0;
  for (; c + 2 <= cols; c += 2) {
    const double* t0 = t + c * t_stride;
    const double* t1 = t0 + t_stride;
    float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
    float64x2_t b01 = vdupq_n_f64(0.0), b23 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float64x2_t h01 = vld1q_f64(h + i), h23 = vld1q_f64(h + i + 2);
      a01 = vaddq_f64(a01, vmulq_f64(h01, vld1q_f64(t0 + i)));
      a23 = vaddq_f64(a23, vmulq_f64(h23, vld1q_f64(t0 + i + 2)));
      b01 = vaddq_f64(b01, vmulq_f64(h01, vld1q_f64(t1 + i)));
      b23 = vaddq_f64(b23, vmulq_f64(h23, vld1q_f64(t1 + i + 2)));
    }
    double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
    double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
    double m0 = vgetq_lane_f64(b01, 0), m1 = vgetq_lane_f64(b01, 1);
    double m2 = vgetq_lane_f64(b23, 0), m3 = vgetq_lane_f64(b23, 1);
    if (i < n) {
      l0 += h[i] * t0[i];
      m0 += h[i] * t1[i];
    }
    if (i + 1 < n) {
      l1 += h[i + 1] * t0[i + 1];
      m1 += h[i + 1] * t1[i + 1];
    }
    if (i + 2 < n) {
      l2 += h[i + 2] * t0[i + 2];
      m2 += h[i + 2] * t1[i + 2];
    }
    out[c] += (l0 + l1) + (l2 + l3);
    out[c + 1] += (m0 + m1) + (m2 + m3);
  }
  for (; c < cols; ++c) out[c] += neon_dot(h, t + c * t_stride, n);
}

void neon_fold_h_rows(const double* h, std::size_t h_stride, std::size_t rows, const double* t,
                      std::size_t n, double* sh, double* sh2, double* sht,
                      std::size_t sht_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const HFold f = neon_fold_h(h + r * h_stride, t, n);
    sh[r] += f.sh;
    sh2[r] += f.sh2;
    sht[r * sht_stride] += f.sht;
  }
}

#endif  // FD_CPA_HAVE_NEON

struct LanesOps {
  double (*sum)(const double*, std::size_t);
  double (*sumsq)(const double*, std::size_t);
  double (*dot)(const double*, const double*, std::size_t);
  HFold (*fold_h)(const double*, const double*, std::size_t);
  // Multi-cell entry points for the batch fold's hot loop (see the
  // batched-cell wrappers above): bit-identical to looping the
  // single-cell primitives, but with several cells' chains in flight.
  void (*dot_cols)(const double*, const double*, std::size_t, std::size_t, std::size_t,
                   double*);
  void (*fold_h_rows)(const double*, std::size_t, std::size_t, const double*, std::size_t,
                      double*, double*, double*, std::size_t);
  void (*fold_s1)(const double*, std::size_t, std::size_t, const double*, double*, double*,
                  double*);
  void (*transpose)(const double*, std::size_t, std::size_t, double*, std::size_t);
  void (*product_scores)(const ProductColumns&, const std::uint32_t*, std::size_t, double*);
  CpaSimd kind;
};

constexpr LanesOps kScalarOps = {scalar_sum,           scalar_sumsq,     scalar_dot,
                                 scalar_fold_h,        scalar_dot_cols,  scalar_fold_h_rows,
                                 scalar_fold_s1,       scalar_transpose, scalar_product_scores,
                                 CpaSimd::kScalar};
#if defined(FD_CPA_HAVE_AVX2)
constexpr LanesOps kAvx2Ops = {avx2_sum,           avx2_sumsq,     avx2_dot,
                               avx2_fold_h,        avx2_dot_cols,  avx2_fold_h_rows,
                               avx2_fold_s1,       avx2_transpose, avx2_product_scores,
                               CpaSimd::kAvx2};
constexpr LanesOps kAvx512Ops = {avx2_sum,           avx2_sumsq,     avx2_dot,
                                 avx2_fold_h,        avx2_dot_cols,  avx2_fold_h_rows,
                                 avx2_fold_s1,       avx2_transpose, avx512_product_scores,
                                 CpaSimd::kAvx512};
#endif
#if defined(FD_CPA_HAVE_NEON)
// fold_s1 and product_scores have no NEON body yet; the scalar ones run
// the identical lane program, so pointing at them changes speed, never
// bits.
constexpr LanesOps kNeonOps = {neon_sum,       neon_sumsq,       neon_dot,
                               neon_fold_h,    neon_dot_cols,    neon_fold_h_rows,
                               scalar_fold_s1, scalar_transpose, scalar_product_scores,
                               CpaSimd::kNeon};
#endif

const LanesOps* ops_for(CpaSimd kind) {
  switch (kind) {
    case CpaSimd::kScalar:
      return &kScalarOps;
    case CpaSimd::kAvx2:
#if defined(FD_CPA_HAVE_AVX2)
      if (__builtin_cpu_supports("avx2")) return &kAvx2Ops;
#endif
      return nullptr;
    case CpaSimd::kAvx512:
#if defined(FD_CPA_HAVE_AVX2)
      if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vpopcntdq")) {
        return &kAvx512Ops;
      }
#endif
      return nullptr;
    case CpaSimd::kNeon:
#if defined(FD_CPA_HAVE_NEON)
      return &kNeonOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const LanesOps* resolve_ops() {
  if (const char* env = std::getenv("FD_CPA_KERNEL")) {
    const std::string_view v(env);
    const LanesOps* forced = nullptr;
    if (v == "scalar") forced = ops_for(CpaSimd::kScalar);
    if (v == "avx2") forced = ops_for(CpaSimd::kAvx2);
    if (v == "avx512") forced = ops_for(CpaSimd::kAvx512);
    if (v == "neon") forced = ops_for(CpaSimd::kNeon);
    // Unknown or unavailable requests fall through to auto-detection;
    // all paths are bit-identical, so this can never change a result.
    if (forced != nullptr) return forced;
  }
  if (const LanesOps* p = ops_for(CpaSimd::kAvx512)) return p;
  if (const LanesOps* p = ops_for(CpaSimd::kAvx2)) return p;
  if (const LanesOps* p = ops_for(CpaSimd::kNeon)) return p;
  return &kScalarOps;
}

// Resolved once on first use; concurrent first calls race benignly
// (the environment is stable, so they all store the same pointer).
std::atomic<const LanesOps*> g_ops{nullptr};

const LanesOps& active_ops() {
  const LanesOps* p = g_ops.load(std::memory_order_acquire);
  if (p == nullptr) {
    p = resolve_ops();
    g_ops.store(p, std::memory_order_release);
  }
  return *p;
}

}  // namespace

const char* cpa_simd_name(CpaSimd kind) {
  switch (kind) {
    case CpaSimd::kScalar:
      return "scalar";
    case CpaSimd::kAvx2:
      return "avx2";
    case CpaSimd::kNeon:
      return "neon";
    case CpaSimd::kAvx512:
      return "avx512";
  }
  return "?";
}

bool cpa_simd_available(CpaSimd kind) { return ops_for(kind) != nullptr; }

CpaSimd cpa_active_simd() { return active_ops().kind; }

bool cpa_force_simd(CpaSimd kind) {
  const LanesOps* p = ops_for(kind);
  if (p == nullptr) return false;
  g_ops.store(p, std::memory_order_release);
  return true;
}

void cpa_reset_simd() { g_ops.store(resolve_ops(), std::memory_order_release); }

double lanes4_sum(const double* x, std::size_t n) { return active_ops().sum(x, n); }
double lanes4_sumsq(const double* x, std::size_t n) { return active_ops().sumsq(x, n); }
double lanes4_dot(const double* a, const double* b, std::size_t n) {
  return active_ops().dot(a, b, n);
}
HFold lanes4_fold_h(const double* h, const double* t, std::size_t n) {
  return active_ops().fold_h(h, t, n);
}

double scan_pearson(double dn, double sh, double sh2, double sht, double col_sum,
                    double col_var) {
  const double var_h = dn * sh2 - sh * sh;
  const double cov = dn * sht - sh * col_sum;
  const double denom = var_h * col_var;
  return denom > 0.0 ? cov / std::sqrt(denom) : 0.0;
}

void product_scan_scores(const ProductColumns& in, std::span<const std::uint32_t> guesses,
                         double* scores) {
  active_ops().product_scores(in, guesses.data(), guesses.size(), scores);
}

// --- CpaSums ---------------------------------------------------------------

void CpaSums::reset(std::size_t g, std::size_t s) {
  num_guesses = g;
  num_samples = s;
  traces = 0;
  have_ref = false;
  ref_h.assign(g, 0.0);
  ref_t.assign(s, 0.0);
  sum_h.assign(g, 0.0);
  sum_h2.assign(g, 0.0);
  sum_t.assign(s, 0.0);
  sum_t2.assign(s, 0.0);
  sum_ht.assign(g * s, 0.0);
}

double CpaSums::correlation(std::size_t guess, std::size_t sample) const {
  assert(guess < num_guesses && sample < num_samples);
  if (traces < 2) return 0.0;
  const double dn = static_cast<double>(traces);
  const double sh = sum_h[guess];
  const double st = sum_t[sample];
  // Shifted-data moments: with every value entering as (x - x_first)
  // these no longer cancel catastrophically under a large DC offset.
  const double cov = dn * sum_ht[guess * num_samples + sample] - sh * st;
  const double var_h = dn * sum_h2[guess] - sh * sh;
  const double var_t = dn * sum_t2[sample] - st * st;
  if (var_h <= 0.0 || var_t <= 0.0) return 0.0;
  return cov / std::sqrt(var_h * var_t);
}

// --- shard-fold merge and wire serde ---------------------------------------

bool merge_cpa_sums(CpaSums& dst, const CpaSums& src) {
  if (src.traces == 0 || !src.have_ref) return true;
  if (dst.traces == 0 || !dst.have_ref) {
    dst = src;
    return true;
  }
  // Checked in release builds too: a wrong-shaped fold deserialized off
  // the fleet wire must be an error the caller can surface, never an
  // out-of-bounds write.
  if (dst.num_guesses != src.num_guesses || dst.num_samples != src.num_samples) {
    return false;
  }
  const std::size_t gs = dst.num_guesses;
  const std::size_t ss = dst.num_samples;
  const double n = static_cast<double>(src.traces);
  // Rebase src's shifted sums onto dst's references: each src value x
  // entered its sums as (x - r_src); relative to dst's reference it is
  // (x - r_dst) = (x - r_src) + d with d = r_src - r_dst. Per-cell
  // expression order below is fixed -- it is the determinism contract.
  for (std::size_t g = 0; g < gs; ++g) {
    const double dh = src.ref_h[g] - dst.ref_h[g];
    dst.sum_h[g] += src.sum_h[g] + n * dh;
    dst.sum_h2[g] += src.sum_h2[g] + 2.0 * dh * src.sum_h[g] + n * dh * dh;
  }
  for (std::size_t s = 0; s < ss; ++s) {
    const double dt = src.ref_t[s] - dst.ref_t[s];
    dst.sum_t[s] += src.sum_t[s] + n * dt;
    dst.sum_t2[s] += src.sum_t2[s] + 2.0 * dt * src.sum_t[s] + n * dt * dt;
  }
  for (std::size_t g = 0; g < gs; ++g) {
    const double dh = src.ref_h[g] - dst.ref_h[g];
    const double* sht = src.sum_ht.data() + g * ss;
    double* dht = dst.sum_ht.data() + g * ss;
    for (std::size_t s = 0; s < ss; ++s) {
      const double dt = src.ref_t[s] - dst.ref_t[s];
      dht[s] += sht[s] + dh * src.sum_t[s] + dt * src.sum_h[g] + n * dh * dt;
    }
  }
  dst.traces += src.traces;
  return true;
}

namespace {

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& b, double v) {
  put_u64(b, std::bit_cast<std::uint64_t>(v));
}

// Bounds-checked little-endian reader over the fold wire format.
struct FoldCursor {
  std::span<const std::uint8_t> bytes;
  std::size_t off;
  bool fail = false;

  std::uint64_t u64() {
    if (fail || bytes.size() - off < 8) {
      fail = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  void f64_vec(std::vector<double>& out, std::size_t n) {
    out.clear();
    if (fail || (bytes.size() - off) / 8 < n) {
      fail = true;
      return;
    }
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(f64());
  }
};

}  // namespace

void serialize_cpa_sums(std::vector<std::uint8_t>& out, const CpaSums& sums) {
  put_u64(out, sums.num_guesses);
  put_u64(out, sums.num_samples);
  put_u64(out, sums.traces);
  put_u64(out, sums.have_ref ? 1 : 0);
  for (const auto* v :
       {&sums.ref_h, &sums.sum_h, &sums.sum_h2}) {
    for (const double x : *v) put_f64(out, x);
  }
  for (const auto* v : {&sums.ref_t, &sums.sum_t, &sums.sum_t2}) {
    for (const double x : *v) put_f64(out, x);
  }
  for (const double x : sums.sum_ht) put_f64(out, x);
}

bool deserialize_cpa_sums(std::span<const std::uint8_t> bytes, std::size_t& offset,
                          CpaSums& out) {
  if (offset > bytes.size()) return false;
  FoldCursor c{bytes, offset};
  const std::uint64_t g = c.u64();
  const std::uint64_t s = c.u64();
  const std::uint64_t traces = c.u64();
  const std::uint64_t have_ref = c.u64();
  // Shape sanity bound: a fold's G x S table never exceeds the wire
  // payload it arrived in, so this rejects garbage before allocating.
  if (c.fail || have_ref > 1 || g > (1U << 20) || s > (1U << 20) ||
      (bytes.size() - c.off) / 8 < g * s) {
    return false;
  }
  // Header consistency: the kernel sets have_ref on the very first
  // add_trace, so a fold has a reference exactly when it has traces,
  // and a non-empty fold always has a non-empty shape. A trace count no
  // campaign can produce (2^40 traces is ~4 PB of raw samples) is
  // equally impossible. Such headers only arrive from corrupt or
  // hostile fold frames -- reject them here so merge_cpa_sums never
  // sees them.
  if ((have_ref != 0) != (traces != 0)) return false;
  if (traces != 0 && (g == 0 || s == 0)) return false;
  if (traces > (1ULL << 40)) return false;
  out.num_guesses = static_cast<std::size_t>(g);
  out.num_samples = static_cast<std::size_t>(s);
  out.traces = static_cast<std::size_t>(traces);
  out.have_ref = have_ref != 0;
  c.f64_vec(out.ref_h, g);
  c.f64_vec(out.sum_h, g);
  c.f64_vec(out.sum_h2, g);
  c.f64_vec(out.ref_t, s);
  c.f64_vec(out.sum_t, s);
  c.f64_vec(out.sum_t2, s);
  c.f64_vec(out.sum_ht, g * s);
  if (c.fail) return false;
  offset = c.off;
  return true;
}

// --- CpaBatchKernel --------------------------------------------------------

CpaBatchKernel::CpaBatchKernel(std::size_t num_guesses, std::size_t num_samples,
                               CpaKernelConfig config)
    : g_(num_guesses), s_(num_samples), cfg_(config) {
  if (cfg_.batch_traces == 0) cfg_.batch_traces = 1;
  if (cfg_.guess_block == 0) cfg_.guess_block = 1;
  if (cfg_.sample_block == 0) cfg_.sample_block = 1;
  hstage_.assign(g_ * cfg_.batch_traces, 0.0);
  tstage_.assign(s_ * cfg_.batch_traces, 0.0);
  hbuf_.assign(g_ * cfg_.batch_traces, 0.0);
  tbuf_.assign(s_ * cfg_.batch_traces, 0.0);
}

void CpaBatchKernel::add_trace(CpaSums& sums, std::span<const double> hypotheses,
                               std::span<const float> samples) {
  if (hypotheses.size() != g_ || samples.size() != s_) {
    // Hard failure in every build mode: the old assert() compiled away
    // under NDEBUG and the loops below read past the spans' ends.
    throw std::invalid_argument(
        "CpaBatchKernel::add_trace: span shape mismatch (got " +
        std::to_string(hypotheses.size()) + " hypotheses x " +
        std::to_string(samples.size()) + " samples, kernel is " + std::to_string(g_) +
        " x " + std::to_string(s_) + ")");
  }
  if (sums.num_guesses != g_ || sums.num_samples != s_) sums.reset(g_, s_);
  if (!sums.have_ref) {
    for (std::size_t g = 0; g < g_; ++g) sums.ref_h[g] = hypotheses[g];
    for (std::size_t s = 0; s < s_; ++s) sums.ref_t[s] = static_cast<double>(samples[s]);
    sums.have_ref = true;
  }
  // Stage the shifted trace contiguously (streaming writes). Writing
  // straight into the per-guess fold layout instead -- one scattered
  // write per guess, stride B -- was the measured bottleneck of the
  // whole fold once the reductions were vectorized; fold_batch
  // transposes the staging area in cache-sized blocks. The shifted
  // values themselves are computed exactly as before.
  const std::size_t p = pending_;
  double* hrow = hstage_.data() + p * g_;
  for (std::size_t g = 0; g < g_; ++g) hrow[g] = hypotheses[g] - sums.ref_h[g];
  double* trow = tstage_.data() + p * s_;
  for (std::size_t s = 0; s < s_; ++s)
    trow[s] = static_cast<double>(samples[s]) - sums.ref_t[s];
  ++pending_;
  ++sums.traces;
  if (pending_ == cfg_.batch_traces) fold_batch(sums);
}

void CpaBatchKernel::flush(CpaSums& sums) {
  if (pending_ > 0) fold_batch(sums);
}

void CpaBatchKernel::fold_batch(CpaSums& sums) {
  const std::size_t b = cfg_.batch_traces;
  const std::size_t n = pending_;
  // One dispatch resolution per batch, not one atomic load per cell.
  const LanesOps& ops = active_ops();
  if (s_ == 1) {
    // Default attack shape (G x 1): no transpose at all. tstage_ IS the
    // single sample column (contiguous, same element order the
    // transposed tbuf_ row would have), and fold_s1 walks the
    // trace-major hstage_ directly -- same lane program per cell, so
    // same bits as the general path below.
    sums.sum_t[0] += ops.sum(tstage_.data(), n);
    sums.sum_t2[0] += ops.sumsq(tstage_.data(), n);
    ops.fold_s1(hstage_.data(), g_, n, tstage_.data(), sums.sum_h.data(),
                sums.sum_h2.data(), sums.sum_ht.data());
    pending_ = 0;
    return;
  }
  ops.transpose(hstage_.data(), n, g_, hbuf_.data(), b);
  ops.transpose(tstage_.data(), n, s_, tbuf_.data(), b);
  // Sample-side moments first (each cell updated once per batch).
  for (std::size_t s = 0; s < s_; ++s) {
    const double* row = tbuf_.data() + s * b;
    sums.sum_t[s] += ops.sum(row, n);
    sums.sum_t2[s] += ops.sumsq(row, n);
  }
  // Tiled H^T.S update: guess tiles x sample tiles, each sum_ht cell a
  // length-n dot product over contiguous rows. Tiling only reorders
  // *which cell* is visited next, never the reduction inside a cell, so
  // the tile sizes cannot change any value -- and the multi-cell
  // entry points below only interleave whole cells the same way.
  for (std::size_t g0 = 0; g0 < g_; g0 += cfg_.guess_block) {
    const std::size_t g1 = std::min(g_, g0 + cfg_.guess_block);
    for (std::size_t s0 = 0; s0 < s_; s0 += cfg_.sample_block) {
      const std::size_t s1 = std::min(s_, s0 + cfg_.sample_block);
      std::size_t sb = s0;
      if (s0 == 0) {
        // Guess-side moments ride the first sample tile, fused with
        // that column's dot product through the fold_h program -- the
        // fused fold runs the identical lane arithmetic for each of
        // its three sums, so fusion cannot change a bit.
        ops.fold_h_rows(hbuf_.data() + g0 * b, b, g1 - g0, tbuf_.data(), n,
                        sums.sum_h.data() + g0, sums.sum_h2.data() + g0,
                        sums.sum_ht.data() + g0 * s_, s_);
        sb = 1;
      }
      if (sb < s1) {
        for (std::size_t g = g0; g < g1; ++g) {
          ops.dot_cols(hbuf_.data() + g * b, tbuf_.data() + sb * b, b, s1 - sb, n,
                       sums.sum_ht.data() + g * s_ + sb);
        }
      }
    }
  }
  pending_ = 0;
}

}  // namespace fd::attack
