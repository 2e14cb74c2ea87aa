#include "src/common/sha1.hpp"

#include <cstring>

namespace c4h {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buf_len_ = 0;
  total_bits_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  // Rolling message schedule: w[i & 15] holds W[i] for the 16 rounds that
  // still read it (W[i] depends on W[i-3], W[i-8], W[i-14] and W[i-16]).
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[i * 4]} << 24) | (std::uint32_t{block[i * 4 + 1]} << 16) |
           (std::uint32_t{block[i * 4 + 2]} << 8) | std::uint32_t{block[i * 4 + 3]};
  }
  auto next_w = [&w](int i) {
    if (i >= 16) {
      w[i & 15] = rotl(w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15], 1);
    }
    return w[i & 15];
  };

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  };
  int i = 0;
  for (; i < 20; ++i) round((b & c) | (~b & d), 0x5A827999u, next_w(i));
  for (; i < 40; ++i) round(b ^ c ^ d, 0x6ED9EBA1u, next_w(i));
  for (; i < 60; ++i) round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, next_w(i));
  for (; i < 80; ++i) round(b ^ c ^ d, 0xCA62C1D6u, next_w(i));
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bits_ += std::uint64_t{len} * 8;
  while (len > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == buf_.size()) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
}

Sha1::Digest Sha1::finish() {
  // Pad in place: 0x80, zeros up to byte 56 of a block, then the message
  // length in bits, big-endian. A tail past byte 55 spills into a second block.
  constexpr std::size_t kLengthAt = 56;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kLengthAt) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, kLengthAt - buf_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[kLengthAt + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - i * 8));
  }
  process_block(buf_.data());

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

}  // namespace c4h
