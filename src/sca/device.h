#pragma once
// Synthetic EM device model.
//
// Substitutes for the paper's physical rig (ARM Cortex-M4 + RISC-EMP430LS
// near-field probe + PicoScope at 500 MS/s): each leakage event -- one
// intermediate value of the soft-float pipeline -- becomes
// `samples_per_event` trace samples with amplitude
//     alpha * HW(value) + N(0, noise_sigma^2),
// the Hamming-weight leakage model the paper itself assumes for its
// CPA hypotheses (eq. (1)). noise_sigma is calibrated so that the
// sign-bit measurements-to-disclosure lands near the paper's ~9k traces
// (see DESIGN.md); all other components then fall out of the model.
//
// Countermeasure knobs double as the Section V.B ablations:
//  - constant_weight: "hiding" -- amplitude no longer depends on data;
//  - jitter_max:      random misalignment per trace;
//  - extra noise:     noise amplification.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/popcount.h"
#include "common/rng.h"
#include "common/ziggurat.h"
#include "fpr/leakage.h"
#include "tracestore/archive.h"

namespace fd::sca {

// Fixed layout of one captured window: the signing code performs four
// fpr_mul (secret x known: re*re, im*im, re*im, im*re) followed by one
// fpr_sub and one fpr_add; with the zero-free operands of real traces
// each mul emits 17 events and each add 3. Sample indices below assume
// samples_per_event == 1 and no jitter.
namespace window {
inline constexpr std::size_t kEventsPerMul = 17;
inline constexpr std::size_t kEventsPerAdd = 3;
inline constexpr std::size_t kEventsPerWindow = 4 * kEventsPerMul + 2 * kEventsPerAdd;

// Most samples one synthesized window may have (kEventsPerWindow ·
// samples_per_event + jitter_max). Real captures use a few hundred; at
// 2^20 a window's float samples stay at 4 MiB.
inline constexpr std::uint64_t kMaxSamples = std::uint64_t{1} << 20;
static_assert(kMaxSamples <= tracestore::kMaxSamplesPerTrace);

// Offsets of tagged events inside one fpr_mul block.
inline constexpr std::size_t kOffSign = 0;
inline constexpr std::size_t kOffExpX = 1;
inline constexpr std::size_t kOffExpY = 2;
inline constexpr std::size_t kOffExpSum = 3;
inline constexpr std::size_t kOffXLo = 4;
inline constexpr std::size_t kOffXHi = 5;
inline constexpr std::size_t kOffYLo = 6;
inline constexpr std::size_t kOffYHi = 7;
inline constexpr std::size_t kOffProdLL = 8;
inline constexpr std::size_t kOffProdLH = 9;
inline constexpr std::size_t kOffAccZ1a = 10;
inline constexpr std::size_t kOffProdHL = 11;
inline constexpr std::size_t kOffAccZ1b = 12;
inline constexpr std::size_t kOffAccZ2 = 13;
inline constexpr std::size_t kOffProdHH = 14;
inline constexpr std::size_t kOffAccZu = 15;
inline constexpr std::size_t kOffResult = 16;

// Start of the i-th multiplication block (i in [0, 4)).
[[nodiscard]] constexpr std::size_t mul_base(unsigned i) { return i * kEventsPerMul; }

// The two multiplications whose x-operand is the secret real part are
// blocks 0 (known = Re c) and 2 (known = Im c); the imaginary part is
// blocks 1 (known = Im c) and 3 (known = Re c).
[[nodiscard]] constexpr std::size_t mul_block_for(bool imag_part, unsigned which) {
  return imag_part ? (which == 0 ? 1 : 3) : (which == 0 ? 0 : 2);
}
}  // namespace window

struct Trace {
  std::vector<float> samples;
};

struct DeviceConfig {
  double alpha = 1.0;           // amplitude per Hamming-weight unit
  double noise_sigma = 12.0;    // additive Gaussian noise, same units
  unsigned samples_per_event = 1;
  unsigned jitter_max = 0;      // uniform [0, jitter_max] shift per trace
  bool constant_weight = false; // hiding countermeasure

  // False for a config no trace can be synthesized from: zero samples
  // per event, a window above window::kMaxSamples, or a non-finite alpha
  // or noise_sigma. The window bound also rejects the one jitter_max
  // whose + 1 wraps (2^32 - 1).
  [[nodiscard]] bool valid() const {
    return samples_per_event != 0 && window_samples() <= window::kMaxSamples &&
           std::isfinite(alpha) && std::isfinite(noise_sigma);
  }

  // Samples of one synthesized window of window::kEventsPerWindow events.
  [[nodiscard]] std::uint64_t window_samples() const {
    return std::uint64_t{window::kEventsPerWindow} * samples_per_event + jitter_max;
  }
};

class EmDeviceModel {
 public:
  // Throws std::invalid_argument when !config.valid().
  explicit EmDeviceModel(DeviceConfig config, std::uint64_t noise_seed = 0x0DEC0DE)
      : config_(config), noise_rng_(noise_seed) {
    if (!config_.valid()) throw std::invalid_argument("EmDeviceModel: invalid DeviceConfig");
  }

  [[nodiscard]] const DeviceConfig& config() const { return config_; }

  // Restarts the noise stream at `noise_seed` (a campaign gives each
  // query its own).
  void reseed(std::uint64_t noise_seed) { noise_rng_ = ChaCha20Prng(noise_seed); }

  // Synthesizes one noisy trace from a captured event window into `out`,
  // reusing its capacity: the jitter uniform is drawn first, then the
  // window's float(alpha * HW) amplitudes (zero in the jitter margin) are
  // written, and one noise pass adds float(noise_sigma * z) to each
  // sample, z the unit normals one fill_normals call would draw.
  void synthesize_into(std::span<const fpr::LeakageEvent> events, std::vector<float>& out) {
    const unsigned spe = config_.samples_per_event;
    const std::size_t jitter =
        config_.jitter_max == 0 ? 0 : noise_rng_.uniform(config_.jitter_max + 1);
    const std::size_t body = events.size() * spe;
    out.resize(body + config_.jitter_max);
    float* dst = out.data();
    std::fill_n(dst, jitter, 0.0F);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const int hw = config_.constant_weight ? 32 : popcount64(events[i].value);
      std::fill_n(dst + jitter + i * spe, spe, static_cast<float>(config_.alpha * hw));
    }
    std::fill(dst + jitter + body, dst + out.size(), 0.0F);
    add_scaled_normals(noise_rng_, config_.noise_sigma, out);
  }

  [[nodiscard]] Trace synthesize(std::span<const fpr::LeakageEvent> events) {
    Trace t;
    synthesize_into(events, t.samples);
    return t;
  }

 private:
  DeviceConfig config_;
  ChaCha20Prng noise_rng_;
};

}  // namespace fd::sca
