#include "falcon/tree.h"

#include <cassert>

#include "fft/fft.h"

namespace fd::falcon {

using fpr::Fpr;
using fpr::fpr_add;
using fpr::fpr_div;
using fpr::fpr_mul;
using fpr::fpr_of;
using fpr::fpr_sqrt;
using fpr::fpr_sub;

namespace {

// Inner recursion on the auto-adjoint quasicyclic Gram [[g0, g1],
// [adj(g1), g0]]; g0/g1 are clobbered as scratch.
void ffldl_inner(std::span<Fpr> tree, std::span<Fpr> g0, std::span<Fpr> g1, unsigned logn) {
  const std::size_t n = std::size_t{1} << logn;
  if (logn == 0) {
    tree[0] = g0[0];
    return;
  }
  const std::size_t hn = n >> 1;

  // LDL: d00 = g0 (in place), l10 -> g1, d11 -> g11 buffer.
  std::vector<Fpr> g11(g0.begin(), g0.end());
  fft::poly_ldl_fft(g0, g1, g11, logn);  // g1 := l10, g11 := d11
  std::copy(g1.begin(), g1.begin() + static_cast<std::ptrdiff_t>(n), tree.begin());

  // Left subtree from split(d00), right subtree from split(d11).
  std::vector<Fpr> s0(hn), s1(hn);
  fft::poly_split_fft(s0, s1, g0, logn);
  ffldl_inner(tree.subspan(n, tree_size(logn - 1)), s0, s1, logn - 1);

  fft::poly_split_fft(s0, s1, g11, logn);
  ffldl_inner(tree.subspan(n + tree_size(logn - 1)), s0, s1, logn - 1);
}

}  // namespace

void ffldl_build(std::span<Fpr> tree, std::span<const Fpr> g00, std::span<Fpr> g01,
                 std::span<Fpr> g11, unsigned logn) {
  assert(logn >= 1);
  const std::size_t n = std::size_t{1} << logn;
  assert(tree.size() >= tree_size(logn));

  std::vector<Fpr> d00(g00.begin(), g00.end());
  fft::poly_ldl_fft(g00, g01, g11, logn);  // g01 := l10, g11 := d11
  std::copy(g01.begin(), g01.begin() + static_cast<std::ptrdiff_t>(n), tree.begin());

  const std::size_t hn = n >> 1;
  std::vector<Fpr> s0(hn), s1(hn);
  fft::poly_split_fft(s0, s1, d00, logn);
  ffldl_inner(tree.subspan(n, tree_size(logn - 1)), s0, s1, logn - 1);

  fft::poly_split_fft(s0, s1, g11, logn);
  ffldl_inner(tree.subspan(n + tree_size(logn - 1)), s0, s1, logn - 1);
}

void normalize_tree_leaves(std::span<Fpr> tree, unsigned logn, Fpr sigma) {
  if (logn == 0) {
    tree[0] = fpr_div(sigma, fpr_sqrt(tree[0]));
    return;
  }
  const std::size_t n = std::size_t{1} << logn;
  normalize_tree_leaves(tree.subspan(n, tree_size(logn - 1)), logn - 1, sigma);
  normalize_tree_leaves(tree.subspan(n + tree_size(logn - 1)), logn - 1, sigma);
}

LeafRange tree_leaf_range(std::span<const Fpr> tree, unsigned logn) {
  if (logn == 0) {
    const double v = tree[0].to_double();
    return {v, v};
  }
  const std::size_t n = std::size_t{1} << logn;
  const LeafRange l = tree_leaf_range(tree.subspan(n, tree_size(logn - 1)), logn - 1);
  const LeafRange r = tree_leaf_range(tree.subspan(n + tree_size(logn - 1)), logn - 1);
  return {std::min(l.min_value, r.min_value), std::max(l.max_value, r.max_value)};
}

void ff_sampling(SamplerZ& samp, std::span<Fpr> z0, std::span<Fpr> z1,
                 std::span<const Fpr> tree, std::span<const Fpr> t0,
                 std::span<const Fpr> t1, unsigned logn, std::span<Fpr> tmp) {
  const std::size_t n = std::size_t{1} << logn;
  const std::size_t hn = n >> 1;

  if (logn == 1) {
    // One complex slot; leaves live at tree[2] (d00) and tree[3] (d11).
    const Fpr sigma1 = tree[3];
    z1[0] = fpr_of(samp.sample(t1[0], sigma1));
    z1[1] = fpr_of(samp.sample(t1[1], sigma1));

    // tb0 = t0 + (t1 - z1) * l10  (complex multiply by tree[0..1]).
    const Fpr d_re = fpr_sub(t1[0], z1[0]);
    const Fpr d_im = fpr_sub(t1[1], z1[1]);
    const Fpr l_re = tree[0];
    const Fpr l_im = tree[1];
    const Fpr b_re = fpr_add(t0[0], fpr_sub(fpr_mul(d_re, l_re), fpr_mul(d_im, l_im)));
    const Fpr b_im = fpr_add(t0[1], fpr_add(fpr_mul(d_re, l_im), fpr_mul(d_im, l_re)));

    const Fpr sigma0 = tree[2];
    z0[0] = fpr_of(samp.sample(b_re, sigma0));
    z0[1] = fpr_of(samp.sample(b_im, sigma0));
    return;
  }

  const auto tree_l10 = tree.first(n);
  const auto tree0 = tree.subspan(n, tree_size(logn - 1));               // d00 branch
  const auto tree1 = tree.subspan(n + tree_size(logn - 1));              // d11 branch

  // This level's 3n Fprs: split target halves a0/a1, sampled halves
  // u0/u1, the updated target tb; the next level works past them.
  const auto a0 = tmp.subspan(0, hn);
  const auto a1 = tmp.subspan(hn, hn);
  const auto u0 = tmp.subspan(n, hn);
  const auto u1 = tmp.subspan(n + hn, hn);
  const auto tb = tmp.subspan(2 * n, n);
  const auto rest = tmp.subspan(3 * n);

  // z1 from the right (d11) branch.
  fft::poly_split_fft(a0, a1, t1, logn);
  ff_sampling(samp, u0, u1, tree1, a0, a1, logn - 1, rest);
  fft::poly_merge_fft(z1, u0, u1, logn);

  // tb0 = t0 + (t1 - z1) * l10.
  std::copy(t1.begin(), t1.begin() + static_cast<std::ptrdiff_t>(n), tb.begin());
  fft::poly_sub(tb, z1, logn);
  fft::poly_mul_fft(tb, tree_l10, logn);
  fft::poly_add(tb, t0, logn);

  // z0 from the left (d00) branch.
  fft::poly_split_fft(a0, a1, tb, logn);
  ff_sampling(samp, u0, u1, tree0, a0, a1, logn - 1, rest);
  fft::poly_merge_fft(z0, u0, u1, logn);
}

}  // namespace fd::falcon
