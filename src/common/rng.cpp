#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/shake256.h"

namespace fd {

namespace {

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof v);
}

}  // namespace

std::uint8_t RandomSource::next_u8() {
  std::uint8_t b = 0;
  fill({&b, 1});
  return b;
}

std::uint16_t RandomSource::next_u16() {
  std::uint8_t b[2];
  fill(b);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint64_t RandomSource::next_u64() {
  std::uint8_t b[8];
  fill(b);
  return load_le64(b);
}

std::uint64_t RandomSource::uniform(std::uint64_t bound) {
  // Rejection sampling on the top of the range to remove modulo bias.
  const std::uint64_t limit = bound * ((~std::uint64_t{0}) / bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

double RandomSource::gaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  // Box-Muller on uniforms in (0,1]. Both uniforms come from one 16-byte
  // draw: the same bytes as two next_u64() calls, one fill.
  std::uint8_t b[16];
  fill(b);
  const double u1 =
      (static_cast<double>(load_le64(b) >> 11) + 1.0) * 0x1.0p-52 * 0.5;  // (0,1]
  const double u2 = static_cast<double>(load_le64(b + 8) >> 11) * 0x1.0p-53;  // [0,1)
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_gaussian_ = radius * std::sin(angle);
  have_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};

// kLanes consecutive RFC 7539 blocks (counters counter .. counter +
// kLanes - 1, mod 2^32) in one pass: state word w of lane l is x[w][l],
// so each quarter-round step is one loop over the lanes that the
// compiler turns into vector adds, xors and shifts.
template <std::size_t kLanes>
void chacha_blocks(const std::uint32_t key[8], std::uint32_t counter,
                   const std::uint32_t nonce[3], std::uint8_t* out) {
  const std::uint32_t s[16] = {kSigma[0], kSigma[1], kSigma[2], kSigma[3],
                               key[0],    key[1],    key[2],    key[3],
                               key[4],    key[5],    key[6],    key[7],
                               0,         nonce[0],  nonce[1],  nonce[2]};
  std::uint32_t x[16][kLanes];
  std::uint32_t ctr[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) ctr[l] = counter + static_cast<std::uint32_t>(l);
  for (std::size_t w = 0; w < 16; ++w) {
    for (std::size_t l = 0; l < kLanes; ++l) x[w][l] = w == 12 ? ctr[l] : s[w];
  }
  const auto qr = [&x](int a, int b, int c, int d) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      x[a][l] += x[b][l]; x[d][l] ^= x[a][l]; x[d][l] = std::rotl(x[d][l], 16);
      x[c][l] += x[d][l]; x[b][l] ^= x[c][l]; x[b][l] = std::rotl(x[b][l], 12);
      x[a][l] += x[b][l]; x[d][l] ^= x[a][l]; x[d][l] = std::rotl(x[d][l], 8);
      x[c][l] += x[d][l]; x[b][l] ^= x[c][l]; x[b][l] = std::rotl(x[b][l], 7);
    }
  };
  for (int i = 0; i < 10; ++i) {
    qr(0, 4, 8, 12);
    qr(1, 5, 9, 13);
    qr(2, 6, 10, 14);
    qr(3, 7, 11, 15);
    qr(0, 5, 10, 15);
    qr(1, 6, 11, 12);
    qr(2, 7, 8, 13);
    qr(3, 4, 9, 14);
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t w = 0; w < 16; ++w) {
      store_le32(out + 64 * l + 4 * w, x[w][l] + (w == 12 ? ctr[l] : s[w]));
    }
  }
}

}  // namespace

// The one-block reference: the RFC 7539 test vector pins it, and the
// keystream tests pin the lane-parallel refill against it.
void ChaCha20Prng::block(const std::uint32_t key[8], std::uint32_t counter,
                         const std::uint32_t nonce[3], std::uint8_t out[64]) {
  std::uint32_t s[16] = {kSigma[0], kSigma[1], kSigma[2], kSigma[3],
                         key[0], key[1], key[2], key[3],
                         key[4], key[5], key[6], key[7],
                         counter, nonce[0], nonce[1], nonce[2]};
  std::uint32_t w[16];
  std::memcpy(w, s, sizeof w);
  for (int i = 0; i < 10; ++i) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, w[i] + s[i]);
}

ChaCha20Prng::ChaCha20Prng(std::string_view seed_material) {
  seed_from(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(seed_material.data()), seed_material.size()));
}

ChaCha20Prng::ChaCha20Prng(std::span<const std::uint8_t> seed_material) {
  seed_from(seed_material);
}

ChaCha20Prng::ChaCha20Prng(std::uint64_t seed) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  seed_from(b);
}

void ChaCha20Prng::seed_from(std::span<const std::uint8_t> material) {
  Shake256 sh;
  sh.inject(material);
  sh.flip();
  std::uint8_t raw[44];
  sh.extract(raw);
  for (int i = 0; i < 8; ++i) {
    key_[i] = static_cast<std::uint32_t>(raw[4 * i]) |
              (static_cast<std::uint32_t>(raw[4 * i + 1]) << 8) |
              (static_cast<std::uint32_t>(raw[4 * i + 2]) << 16) |
              (static_cast<std::uint32_t>(raw[4 * i + 3]) << 24);
  }
  for (int i = 0; i < 3; ++i) {
    nonce_[i] = static_cast<std::uint32_t>(raw[32 + 4 * i]) |
                (static_cast<std::uint32_t>(raw[32 + 4 * i + 1]) << 8) |
                (static_cast<std::uint32_t>(raw[32 + 4 * i + 2]) << 16) |
                (static_cast<std::uint32_t>(raw[32 + 4 * i + 3]) << 24);
  }
  counter_ = 0;
  buf_pos_ = sizeof(buf_);
}

void ChaCha20Prng::refill() {
  chacha_blocks<kRefillBlocks>(key_, counter_, nonce_, buf_);
  counter_ += static_cast<std::uint32_t>(kRefillBlocks);
  buf_pos_ = 0;
}

void ChaCha20Prng::fill(std::span<std::uint8_t> out) {
  std::uint8_t* dst = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    if (buf_pos_ == sizeof(buf_)) refill();
    const std::size_t n = std::min(left, sizeof(buf_) - buf_pos_);
    std::memcpy(dst, buf_ + buf_pos_, n);
    buf_pos_ += n;
    dst += n;
    left -= n;
  }
}

}  // namespace fd
