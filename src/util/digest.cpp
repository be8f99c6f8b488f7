#include "edgedrift/util/digest.hpp"

#include <bit>
#include <cstring>

namespace edgedrift::util {
namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  acc ^= lane_round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t digest64(const void* data, std::size_t bytes,
                       std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t left = bytes;
  std::uint64_t h;
  if (left >= 32) {
    // Four lanes over 32-byte stripes: independent dependency chains.
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<std::uint64_t>(bytes);

  // Tail: the last < 32 bytes, 8, then 4, then 1 at a time.
  for (; left >= 8; left -= 8, p += 8) {
    h ^= lane_round(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    h ^= load32(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    left -= 4;
    p += 4;
  }
  for (; left > 0; --left, ++p) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }

  // Avalanche.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace edgedrift::util
