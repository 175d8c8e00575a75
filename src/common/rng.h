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
  virtual void fill(std::span<std::uint8_t> out) = 0;

  [[nodiscard]] std::uint8_t next_u8();
  [[nodiscard]] std::uint16_t next_u16();
  [[nodiscard]] std::uint64_t next_u64();
  // Unbiased uniform draw in [0, bound) via rejection; bound must be > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound);
  // Standard normal via Box-Muller over uniform 53-bit doubles.
  [[nodiscard]] double gaussian();

 private:
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

// ChaCha20 keystream generator (RFC 7539 block function, counter mode).
// The keystream is block(counter 0) || block(1) || ...; refills compute
// kRefillBlocks consecutive blocks at once (one per lane), and every
// draw copies whole spans out of that buffer. Buffering changes only
// when a block is computed, never which bytes a draw returns.
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
  static constexpr std::size_t kRefillBlocks = 8;

  void seed_from(std::span<const std::uint8_t> material);
  void refill();

  std::uint32_t key_[8];
  std::uint32_t nonce_[3];
  std::uint32_t counter_ = 0;  // counter of the first block not yet computed
  std::uint8_t buf_[64 * kRefillBlocks];
  std::size_t buf_pos_ = sizeof(buf_);
};

}  // namespace fd
