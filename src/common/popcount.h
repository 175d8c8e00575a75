#pragma once
// Hamming weight without a library call.
//
// For baseline x86-64 (no -mpopcnt), std::popcount compiles to a call
// into libgcc's __popcountdi2. Leakage synthesis takes one Hamming
// weight per event and the attack's hypothesis models one per guess and
// trace, so they use this inline bit-parallel count instead: twelve ALU
// operations, the same result for every input.

#include <cstdint>

namespace fd {

[[nodiscard]] constexpr int popcount64(std::uint64_t v) {
  v -= (v >> 1) & 0x5555555555555555ULL;
  v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
  v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((v * 0x0101010101010101ULL) >> 56);
}

}  // namespace fd
