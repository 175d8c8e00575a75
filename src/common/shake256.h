#pragma once
// SHAKE256 extendable-output function (FIPS 202), built on Keccak-f[1600].
//
// FALCON uses SHAKE256 in two roles that this type serves directly:
//  - HashToPoint: hash (salt || message) and squeeze 16-bit values, and
//  - seeding the signing/keygen PRNG.
// The API mirrors the inject/flip/extract flow of the reference code.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace fd {

class Shake256 {
 public:
  static constexpr std::size_t kRate = 136;  // SHAKE256 rate in bytes

  Shake256() { reset(); }

  // Clears all absorbed data and returns to the absorbing phase.
  void reset();

  // Absorbs data; only valid before flip().
  void inject(std::span<const std::uint8_t> data);
  void inject(std::string_view s);

  // Switches from absorbing to squeezing (applies padding).
  void flip();

  // Squeezes output bytes; only valid after flip().
  void extract(std::span<std::uint8_t> out);
  [[nodiscard]] std::uint8_t extract_u8();
  // Big-endian 16-bit squeeze, as used by FALCON's HashToPoint.
  [[nodiscard]] std::uint16_t extract_u16_be();
  [[nodiscard]] std::uint64_t extract_u64();

 private:
  void permute();

  std::uint64_t state_[25];
  std::size_t pos_;       // byte offset into the rate portion
  bool squeezing_;
};

}  // namespace fd
