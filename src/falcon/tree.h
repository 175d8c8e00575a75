#pragma once
// ffLDL* tree construction (spec Alg. 8/9) and ffSampling (spec Alg. 11).
//
// The tree is the recursive LDL* decomposition of the Gram matrix
// G = B B* in FFT representation: each node stores L10 and recurses on
// the split halves of D00 and D11; keygen then replaces every leaf d by
// sigma / sqrt(d), the standard deviation handed to SamplerZ during
// signing. ffSampling walks the same tree to sample a lattice point
// close to the target t, the core of FALCON's hash-and-sign trapdoor.

#include <span>
#include <vector>

#include "falcon/keys.h"
#include "falcon/sampler.h"
#include "fpr/fpr.h"

namespace fd::falcon {

// Builds the full tree from the 2x2 Gram matrix (g00, g01, g11) given in
// FFT representation; g01/g11 are clobbered. Tree leaves are the raw
// LDL diagonal values (call normalize_tree_leaves afterwards).
void ffldl_build(std::span<fpr::Fpr> tree, std::span<const fpr::Fpr> g00,
                 std::span<fpr::Fpr> g01, std::span<fpr::Fpr> g11, unsigned logn);

// Replaces every leaf d with sigma / sqrt(d).
void normalize_tree_leaves(std::span<fpr::Fpr> tree, unsigned logn, fpr::Fpr sigma);

// Returns the min/max leaf value (after normalization: the sigma range).
struct LeafRange {
  double min_value;
  double max_value;
};
[[nodiscard]] LeafRange tree_leaf_range(std::span<const fpr::Fpr> tree, unsigned logn);

// Scratch Fprs ff_sampling needs at logn: 3n per level of the recursion
// (two split halves, two sampled halves, the updated target), under 6n
// in all.
[[nodiscard]] constexpr std::size_t ff_sampling_scratch(unsigned logn) {
  return std::size_t{6} << logn;
}

// Fast Fourier sampling: given target (t0, t1) in FFT representation and
// the normalized tree, produces integer vectors (z0, z1) in FFT
// representation such that z is distributed as a discrete Gaussian on
// the lattice close to t. logn >= 1. `tmp` holds at least
// ff_sampling_scratch(logn) Fprs; every level of the recursion works in
// it, so a signature allocates nothing here.
void ff_sampling(SamplerZ& samp, std::span<fpr::Fpr> z0, std::span<fpr::Fpr> z1,
                 std::span<const fpr::Fpr> tree, std::span<const fpr::Fpr> t0,
                 std::span<const fpr::Fpr> t1, unsigned logn, std::span<fpr::Fpr> tmp);

}  // namespace fd::falcon
