#pragma once
// Unit normals by a 256-layer table ziggurat (Marsaglia & Tsang 2000).
//
// The density f(x) = exp(-x^2 / 2) on x >= 0 is covered by 256 layers of
// equal area v: layer 0 is the rectangle [0, r] x [0, f(r)] plus the tail
// beyond r, and layer i >= 1 is [0, x[i]] x [f(x[i]), f(x[i+1])], with
// x[1] = r > x[2] > ... > x[256] = 0. One 64-bit keystream word picks a
// layer (bits 0-7), a sign (bit 8) and a 53-bit abscissa m (bits 11-63);
// |z| = m * x[i] / 2^53 is accepted at once when m < k[i], that is when
// it lies under the next layer's edge x[i+1]. That fast path takes ~99%
// of draws, with integer compares only. The rest go to the wedge test
// against f or, in layer 0, to Marsaglia's exponential tail sampler.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.h"

namespace fd {

namespace ziggurat {

inline constexpr std::size_t kLayers = 256;
// Right edge of the base layer: the r at which the 256 equal-area
// layers close exactly at x = 0.
inline constexpr double kR = 3.6541528853610088;

struct Tables {
  std::array<double, kLayers + 1> x{};           // layer edges; x[0] = v / f(r)
  std::array<double, kLayers + 1> f{};           // f(x[i]); f[256] = 1
  std::array<double, kLayers> w{};               // x[i] / 2^53
  std::array<std::uint64_t, kLayers> k{};        // floor(2^53 * x[i+1] / x[i])
};

// Built once, in long double, on first use.
[[nodiscard]] const Tables& tables();

}  // namespace ziggurat

// Fills `out` with unit normals from `rng`, in blocks of up to 256: one
// fill draws a block's words, a branch-free pass writes every fast-path
// value and lists the rejects, then each reject, in index order, is
// finished serially from the words that follow in the stream (a wedge
// test draws one more word, a tail draw two per try, a failed test starts
// over with a fresh word).
void fill_normals(RandomSource& rng, std::span<double> out);

// Adds float(sigma * z) to each out[j], where z are the unit normals
// fill_normals would draw from `rng` for out.size() values: the device's
// noise pass, with no double buffer between the ziggurat and the window.
void add_scaled_normals(RandomSource& rng, double sigma, std::span<float> out);

namespace detail {

// One fast-pass body, instantiated for both outputs above. The body is
// picked once per process from what the CPU supports (AVX-512, else
// portable); the reject finishing is shared, so every body draws the
// same words and writes the same values.
struct NormalsBody {
  const char* name;
  void (*fill)(RandomSource& rng, std::span<double> out);
  void (*add_scaled)(RandomSource& rng, double sigma, std::span<float> out);
};

// The portable body first, then every SIMD body this CPU runs; the last
// entry is the one fill_normals and add_scaled_normals use. Exposed so
// tests can hold each body to the portable one.
[[nodiscard]] std::span<const NormalsBody> normals_bodies();

}  // namespace detail

}  // namespace fd
