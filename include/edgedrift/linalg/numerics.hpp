// The tiered numerics contract (docs/ARCHITECTURE.md, "Tiered numerics
// contract").
//
// The library's original policy was bit-identity everywhere: every scoring
// path had to round exactly like the scalar double reference. That policy
// made the fused ensemble kernels provable, but it also blocked every
// approximate kernel — and the [L x C*n] ensemble-scoring hot path is
// memory-bandwidth-bound, so halving or quartering the bytes moved is the
// single biggest lever left. The contract is therefore split into tiers:
//
//   kExactF64  The retained reference path. Bit-identity is preserved:
//              process()==process_rows(), fused==per-instance, and the
//              committed golden replay transcript must match bit-for-bit
//              on the portable SIMD backend. Nothing about this tier may
//              change without regenerating the golden files.
//
//   kFastF32   Scoring reads a float32 shadow replica of the packed
//              ensemble beta. Guarantee: error-bounded drift-decision
//              equivalence — on the committed golden scenarios, detection
//              times, drift counts and recovery outcomes match the f64
//              reference within the tier's declared tolerance budget
//              (tests/tier_equivalence.hpp). Per-score error is O(2^-24)
//              relative; training stays f64.
//
//   kQuantI8   Scoring reads an int8 replica with per-column float scales
//              (symmetric, zero-point 0). Same drift-decision-equivalence
//              guarantee with a wider budget; per-weight error is bounded
//              by scale/2 = max|w_col| / 254. Training stays f64 and the
//              replica is re-quantized from the f64 master after every
//              beta mutation (the quantization-epoch discipline in
//              model/multi_instance.hpp).
//
// Training (init solves, the P-matrix Sherman–Morrison recursion) is f64 in
// every tier: the recursion is numerically delicate and its state is tiny
// next to the packed ensemble beta, so quantizing it buys little and risks
// divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace edgedrift::linalg {

/// Which numerics tier the scoring hot path runs in.
enum class NumericsTier : std::uint8_t {
  kExactF64 = 0,  ///< Bit-identical double reference path.
  kFastF32 = 1,   ///< float32 packed-beta replica, error-bounded.
  kQuantI8 = 2,   ///< int8 + per-column-scale replica, error-bounded.
};

/// Canonical short name ("f64", "f32", "i8") — used by the CLI, the bench
/// JSON `precision` field and checkpoint error messages.
constexpr const char* tier_name(NumericsTier tier) {
  switch (tier) {
    case NumericsTier::kFastF32:
      return "f32";
    case NumericsTier::kQuantI8:
      return "i8";
    case NumericsTier::kExactF64:
    default:
      return "f64";
  }
}

/// Parses a tier name as accepted by `--numerics` (f64 | f32 | i8).
inline std::optional<NumericsTier> tier_from_name(std::string_view name) {
  if (name == "f64") return NumericsTier::kExactF64;
  if (name == "f32") return NumericsTier::kFastF32;
  if (name == "i8") return NumericsTier::kQuantI8;
  return std::nullopt;
}

/// Bytes per element of the packed-beta replica a tier reads.
constexpr std::size_t tier_element_bytes(NumericsTier tier) {
  switch (tier) {
    case NumericsTier::kFastF32:
      return 4;
    case NumericsTier::kQuantI8:
      return 1;
    case NumericsTier::kExactF64:
    default:
      return 8;
  }
}

}  // namespace edgedrift::linalg
