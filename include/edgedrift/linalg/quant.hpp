// int8 quantization layer — the kQuantI8 tier's replica format and kernels
// (linalg/numerics.hpp).
//
// Scheme: symmetric per-column linear quantization, zero-point 0. For each
// column j of an f64 master W the scale is
//
//   scale[j] = max_i |W[i][j]| / 127        (0 when the column is all-zero)
//   q[i][j]  = round(W[i][j] / scale[j])    clamped to [-127, 127]
//
// so dequantization is q * scale with per-weight error bounded by
// scale[j] / 2 = max_i |W[i][j]| / 254. -128 is never produced: the clamp
// keeps the code domain symmetric, which makes |error| <= scale/2 hold at
// both extremes and leaves q = -q valid (no UB-adjacent negation edge).
//
// Layout: the codes are stored as dot-product tiles, not row-major. The
// columns are cut into groups of 8 and the rows into quads of 4; each
// (group, quad) pair is one 32-byte tile whose bytes 4j..4j+3 hold column
// j's four codes, zero-padded past the last row and column, and a group's
// tiles are contiguous in quad order. One 32-bit lane of a tile is one
// column's quad — the operand of a 4-way byte dot product — so the scoring
// kernel keeps a group's eight int32 sums in one register across every
// quad and writes each output once (simd.hpp, "int8 dot-product tile
// lanes"). The scales are zero-padded to a multiple of 8 likewise. The
// padding is the layout's cost: at L = 22, C*n = 874 the codes cover 24 x
// 880 bytes instead of 22 x 874.
//
// The scoring row quantizes the activation vector dynamically (per row,
// symmetric as above, through quantize_vector), accumulates the integer dot
// product in int32 — exact: every partial sum of every tile lane stays
// within 2^16 x 128 x 127 < 2^31 — and applies the combined float scale once
// per output. Accumulation order therefore does not round at all until the
// final dequant multiply; the tier's error is entirely the two quantization
// grids. The VNNI lane reads the tiles flipped to unsigned bytes as it loads
// them (simd.hpp, i8_tile_step_vnni); the stored tiles are the same for
// every lane.
//
// Column blocks: the packed ensemble beta is [L x C*n] with instance c
// owning columns [c*n, (c+1)*n). QuantizedMatrix quantizes per column, so a
// block can be re-quantized in isolation (quantize_block) when one
// instance's master beta mutates — the quantization-epoch discipline in
// model/multi_instance.cpp. A block need not align with the column groups:
// it rewrites only its own columns' bytes inside the tiles it shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/simd.hpp"

namespace edgedrift::linalg {

/// int8 replica of an f64 matrix: dot-product tiles of codes plus one
/// float scale per column (symmetric, zero-point 0).
struct QuantizedMatrix {
  /// col_groups() x row_quads() tiles of simd::kI8TileBytes, group-major:
  /// codes in [-127, 127], zero in the padding.
  AlignedVector<std::int8_t> tiles;
  /// One scale per column, 0 for zero columns and for the padding up to
  /// col_groups() * simd::kI8TileCols.
  AlignedVector<float> scales;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t row_quads() const {
    return (rows_ + simd::kI8TileRows - 1) / simd::kI8TileRows;
  }
  std::size_t col_groups() const {
    return (cols_ + simd::kI8TileCols - 1) / simd::kI8TileCols;
  }

  /// Sets the shape and zero-fills every tile and scale (grow-only
  /// storage).
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    tiles.assign(col_groups() * row_quads() * simd::kI8TileBytes, 0);
    scales.assign(col_groups() * simd::kI8TileCols, 0.0f);
  }

  /// Byte offset of code (r, c) in `tiles`.
  std::size_t tile_offset(std::size_t r, std::size_t c) const {
    return ((c / simd::kI8TileCols) * row_quads() + r / simd::kI8TileRows) *
               simd::kI8TileBytes +
           (c % simd::kI8TileCols) * simd::kI8TileRows +
           r % simd::kI8TileRows;
  }

  /// Code at (r, c) — test/debug accessor, not a kernel.
  std::int8_t code(std::size_t r, std::size_t c) const {
    return tiles[tile_offset(r, c)];
  }

  /// Dequantized value at (r, c) — test/debug accessor, not a kernel.
  float dequant(std::size_t r, std::size_t c) const {
    return static_cast<float>(code(r, c)) * scales[c];
  }

  /// Heap bytes of the replica (tiles + scales, padding included) — the
  /// stream-density numerator of the i8 tier.
  std::size_t memory_bytes() const {
    return tiles.capacity() + scales.capacity() * sizeof(float);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Quantizes all of `src` into `out` (reshaped; grow-only storage).
void quantize(const Matrix& src, QuantizedMatrix& out);

/// Re-quantizes columns [col_begin, col_begin + width) of `src` into the
/// matching columns of `out`, recomputing those columns' scales. `out` must
/// already have src's shape. The per-block refresh of the packed-beta
/// replica.
void quantize_block(const Matrix& src, QuantizedMatrix& out,
                    std::size_t col_begin, std::size_t width);

/// Symmetric per-vector quantization of an activation vector: returns the
/// scale (max|x|/127, 0 for an all-zero vector) and fills `q` with codes in
/// [-127, 127]. Allocation-free; q.size() == x.size(). The one activation
/// quantizer: the i8 scoring row quantizes each f64 hidden row through it,
/// on the AVX2 lane where the build compiles it and on the portable lane
/// otherwise (simd.hpp, "int8 activation quantizer lanes"), with equal
/// scales and codes.
float quantize_vector(std::span<const double> x, std::span<std::int8_t> q);

/// y[j] = float(sum_i q_x[i] * A.code(i, j)) * x_scale * A.scales[j] — the
/// i8 twin of matvec_transposed (y = A^T x, shapes [m,n]^T x [m] -> [n]).
/// The inner sum is exact int32; the tile lane is the best one the build
/// and the CPU offer (VNNI, AVX2, portable), all bit-identical. Requires
/// A.rows() <= 2^16.
void i8_matvec_transposed_dequant(const QuantizedMatrix& a,
                                  std::span<const std::int8_t> q_x,
                                  float x_scale, std::span<float> y);

}  // namespace edgedrift::linalg
