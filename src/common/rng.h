#pragma once
// Deterministic random sources.
//
// Everything in this repo that needs randomness draws it through the
// RandomSource interface so that experiments are reproducible bit-for-bit
// from a seed. The concrete generator is ChaCha20 seeded via SHAKE256,
// matching the structure of FALCON's reference PRNG.

#include <cstdint>
#include <span>
#include <string_view>

namespace fd {

class RandomSource {
 public:
  virtual ~RandomSource() = default;
  // A byte stream: fills of a, b, ... bytes return the bytes one fill of
  // a + b + ... would. Bulk draws (fill_normals(), SamplerZ's
  // per-iteration draw) rely on that.
  virtual void fill(std::span<std::uint8_t> out) = 0;

  [[nodiscard]] std::uint8_t next_u8();
  [[nodiscard]] std::uint16_t next_u16();
  [[nodiscard]] std::uint64_t next_u64();
  // Unbiased uniform draw in [0, bound) via rejection; bound must be > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound);
  // Standard normal via Box-Muller over uniform 53-bit doubles (test
  // data and masks; device noise draws from common/ziggurat.h).
  [[nodiscard]] double gaussian();

 private:
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

// ChaCha20 keystream generator (RFC 7539 block function, counter mode).
// The keystream is block(counter 0) || block(1) || ...; refills compute
// kRefillBlocks consecutive blocks at once (one per lane, 1 KiB), and
// every draw copies whole spans out of that buffer. Buffering changes
// only when a block is computed, never which bytes a draw returns. The
// refill body is picked once per process from what the CPU supports
// (AVX-512, AVX2, else portable); every body writes the same bytes as
// block() at each counter.
class ChaCha20Prng final : public RandomSource {
 public:
  // Seeds key and nonce by squeezing SHAKE256(seed_material).
  explicit ChaCha20Prng(std::string_view seed_material);
  explicit ChaCha20Prng(std::span<const std::uint8_t> seed_material);
  // Convenience: seeds from a 64-bit integer (used by benches/tests).
  explicit ChaCha20Prng(std::uint64_t seed);

  void fill(std::span<std::uint8_t> out) override;

  // Exposes the raw block function for test vectors (RFC 7539 §2.3.2).
  static void block(const std::uint32_t key[8], std::uint32_t counter,
                    const std::uint32_t nonce[3], std::uint8_t out[64]);

 private:
  static constexpr std::size_t kRefillBlocks = 16;

  void seed_from(std::span<const std::uint8_t> material);
  void refill();

  std::uint32_t key_[8];
  std::uint32_t nonce_[3];
  std::uint32_t counter_ = 0;  // counter of the first block not yet computed
  std::uint8_t buf_[64 * kRefillBlocks];
  std::size_t buf_pos_ = sizeof(buf_);
};

namespace detail {

// One ChaCha20 refill body: writes the 16 blocks at counters counter ..
// counter + 15 (mod 2^32) to out[0 .. 1024).
struct ChaChaBody {
  const char* name;
  void (*blocks16)(const std::uint32_t key[8], std::uint32_t counter,
                   const std::uint32_t nonce[3], std::uint8_t* out);
};

// The portable body first, then every SIMD body this CPU runs; the last
// entry is the one refills use. Exposed so tests can hold each body to
// ChaCha20Prng::block().
[[nodiscard]] std::span<const ChaChaBody> chacha_bodies();

}  // namespace detail

}  // namespace fd
