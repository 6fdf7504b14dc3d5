// 64-bit checksums over byte buffers.
//
//   fnv1a  — byte-serial FNV-1a. Used by the threaded runtime's tests and
//            oracles to prove end-to-end payload integrity across the
//            message and file channels, where speed does not matter.
//   xxh64  — the standard XXH64 algorithm: four independent 64-bit lanes
//            over 32-byte stripes, so it hashes a word at a time and mixes
//            far better than FNV-1a. Every zipperd kMixed frame carries it
//            (core/zipper/net_frame.hpp); it is on the per-block path on
//            both sides of the wire.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace zipper::common {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

constexpr std::uint64_t fnv1a(std::span<const std::byte> bytes,
                              std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

namespace xxh64_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

/// Little-endian loads: XXH64 is defined over little-endian words.
inline std::uint64_t load64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline std::uint32_t load32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kP2;
  acc = std::rotl(acc, 31);
  return acc * kP1;
}

inline std::uint64_t merge(std::uint64_t h, std::uint64_t lane) noexcept {
  h ^= round(0, lane);
  return h * kP1 + kP4;
}

}  // namespace xxh64_detail

inline std::uint64_t xxh64(std::span<const std::byte> bytes,
                           std::uint64_t seed = 0) noexcept {
  using namespace xxh64_detail;
  const std::byte* p = bytes.data();
  const std::byte* const end = p + bytes.size();
  std::uint64_t h = seed + kP5;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kP1;
    const std::byte* const last_stripe = end - 32;
    do {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(h, v1);
    h = merge(h, v2);
    h = merge(h, v3);
    h = merge(h, v4);
  }
  h += static_cast<std::uint64_t>(bytes.size());
  for (; end - p >= 8; p += 8) {
    h ^= round(0, load64(p));
    h = std::rotl(h, 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(load32(p)) * kP1;
    h = std::rotl(h, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kP5;
    h = std::rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace zipper::common
