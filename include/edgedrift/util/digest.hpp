// The library's one non-cryptographic 64-bit digest.
//
// Checkpoint checksums, projection fingerprints and cold-store spill
// checksums all hash with this function. It is the XXH64 construction: four
// independent multiply-rotate lanes consume 32-byte stripes, then the tail is
// folded in 8, 4 and 1 bytes at a time and an avalanche mixes the result.
// The lanes keep the multiplier pipeline full, so the digest runs at
// memory speed instead of the one-multiply-per-byte dependency chain of a
// byte-serial hash. Words are read in host byte order; on the little-endian
// targets this library builds for, the output equals reference XXH64.
#pragma once

#include <cstddef>
#include <cstdint>

namespace edgedrift::util {

/// XXH64 of `bytes` bytes at `data`. Chain several byte ranges by passing
/// the previous digest as the next call's `seed`.
std::uint64_t digest64(const void* data, std::size_t bytes,
                       std::uint64_t seed = 0);

}  // namespace edgedrift::util
