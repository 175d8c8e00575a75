#include "common/shake256.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace fd {
namespace {

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// One Keccak-f[1600] round from state a into state e, every lane index
// a constant. Each output plane is gathered and mixed in turn, so only
// its five lanes, the column parities and d are live at once.
[[gnu::always_inline]] inline void keccak_round(const std::uint64_t a[25], std::uint64_t e[25],
                                                std::uint64_t rc) {
  // Theta: column parities c, then d[x] = c[x-1] ^ rotl(c[x+1], 1).
  const std::uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const std::uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const std::uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const std::uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const std::uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const std::uint64_t d0 = c4 ^ std::rotl(c1, 1);
  const std::uint64_t d1 = c0 ^ std::rotl(c2, 1);
  const std::uint64_t d2 = c1 ^ std::rotl(c3, 1);
  const std::uint64_t d3 = c2 ^ std::rotl(c4, 1);
  const std::uint64_t d4 = c3 ^ std::rotl(c0, 1);
  // Per output plane: rho and pi gather its five lanes, chi mixes them.
  {
    const std::uint64_t b0 = a[0] ^ d0;
    const std::uint64_t b1 = std::rotl(a[6] ^ d1, 44);
    const std::uint64_t b2 = std::rotl(a[12] ^ d2, 43);
    const std::uint64_t b3 = std::rotl(a[18] ^ d3, 21);
    const std::uint64_t b4 = std::rotl(a[24] ^ d4, 14);
    e[0] = b0 ^ (~b1 & b2) ^ rc;
    e[1] = b1 ^ (~b2 & b3);
    e[2] = b2 ^ (~b3 & b4);
    e[3] = b3 ^ (~b4 & b0);
    e[4] = b4 ^ (~b0 & b1);
  }
  {
    const std::uint64_t b0 = std::rotl(a[3] ^ d3, 28);
    const std::uint64_t b1 = std::rotl(a[9] ^ d4, 20);
    const std::uint64_t b2 = std::rotl(a[10] ^ d0, 3);
    const std::uint64_t b3 = std::rotl(a[16] ^ d1, 45);
    const std::uint64_t b4 = std::rotl(a[22] ^ d2, 61);
    e[5] = b0 ^ (~b1 & b2);
    e[6] = b1 ^ (~b2 & b3);
    e[7] = b2 ^ (~b3 & b4);
    e[8] = b3 ^ (~b4 & b0);
    e[9] = b4 ^ (~b0 & b1);
  }
  {
    const std::uint64_t b0 = std::rotl(a[1] ^ d1, 1);
    const std::uint64_t b1 = std::rotl(a[7] ^ d2, 6);
    const std::uint64_t b2 = std::rotl(a[13] ^ d3, 25);
    const std::uint64_t b3 = std::rotl(a[19] ^ d4, 8);
    const std::uint64_t b4 = std::rotl(a[20] ^ d0, 18);
    e[10] = b0 ^ (~b1 & b2);
    e[11] = b1 ^ (~b2 & b3);
    e[12] = b2 ^ (~b3 & b4);
    e[13] = b3 ^ (~b4 & b0);
    e[14] = b4 ^ (~b0 & b1);
  }
  {
    const std::uint64_t b0 = std::rotl(a[4] ^ d4, 27);
    const std::uint64_t b1 = std::rotl(a[5] ^ d0, 36);
    const std::uint64_t b2 = std::rotl(a[11] ^ d1, 10);
    const std::uint64_t b3 = std::rotl(a[17] ^ d2, 15);
    const std::uint64_t b4 = std::rotl(a[23] ^ d3, 56);
    e[15] = b0 ^ (~b1 & b2);
    e[16] = b1 ^ (~b2 & b3);
    e[17] = b2 ^ (~b3 & b4);
    e[18] = b3 ^ (~b4 & b0);
    e[19] = b4 ^ (~b0 & b1);
  }
  {
    const std::uint64_t b0 = std::rotl(a[2] ^ d2, 62);
    const std::uint64_t b1 = std::rotl(a[8] ^ d3, 55);
    const std::uint64_t b2 = std::rotl(a[14] ^ d4, 39);
    const std::uint64_t b3 = std::rotl(a[15] ^ d0, 41);
    const std::uint64_t b4 = std::rotl(a[21] ^ d1, 2);
    e[20] = b0 ^ (~b1 & b2);
    e[21] = b1 ^ (~b2 & b3);
    e[22] = b2 ^ (~b3 & b4);
    e[23] = b3 ^ (~b4 & b0);
    e[24] = b4 ^ (~b0 & b1);
  }
}

void keccak_f1600(std::uint64_t state[25]) {
  std::uint64_t e[25];
  for (std::size_t round = 0; round < 24; round += 2) {
    keccak_round(state, e, kRoundConstants[round]);
    keccak_round(e, state, kRoundConstants[round + 1]);
  }
}

}  // namespace

void Shake256::reset() {
  std::memset(state_, 0, sizeof state_);
  pos_ = 0;
  squeezing_ = false;
}

void Shake256::inject(std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    state_[pos_ / 8] ^= static_cast<std::uint64_t>(byte) << (8 * (pos_ % 8));
    if (++pos_ == kRate) {
      keccak_f1600(state_);
      pos_ = 0;
    }
  }
}

void Shake256::inject(std::string_view s) {
  inject(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Shake256::flip() {
  // SHAKE domain separation (0x1F) and final padding bit.
  state_[pos_ / 8] ^= std::uint64_t{0x1F} << (8 * (pos_ % 8));
  state_[(kRate - 1) / 8] ^= std::uint64_t{0x80} << (8 * ((kRate - 1) % 8));
  keccak_f1600(state_);
  pos_ = 0;
  squeezing_ = true;
}

void Shake256::extract(std::span<std::uint8_t> out) {
  // Copies the longest run the current block still holds, then permutes;
  // lane bytes are little-endian (FIPS 202), as on the host where memcpy
  // copies them.
  std::size_t done = 0;
  while (done < out.size()) {
    if (pos_ == kRate) {
      keccak_f1600(state_);
      pos_ = 0;
    }
    const std::size_t run = std::min(kRate - pos_, out.size() - done);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data() + done, reinterpret_cast<const std::uint8_t*>(state_) + pos_, run);
    } else {
      for (std::size_t i = 0; i < run; ++i) {
        out[done + i] = static_cast<std::uint8_t>(state_[(pos_ + i) / 8] >> (8 * ((pos_ + i) % 8)));
      }
    }
    pos_ += run;
    done += run;
  }
}

std::uint8_t Shake256::extract_u8() {
  std::uint8_t b = 0;
  extract({&b, 1});
  return b;
}

std::uint16_t Shake256::extract_u16_be() {
  std::uint8_t b[2];
  extract(b);
  return static_cast<std::uint16_t>((b[0] << 8) | b[1]);
}

std::uint64_t Shake256::extract_u64() {
  std::uint8_t b[8];
  extract(b);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

}  // namespace fd
