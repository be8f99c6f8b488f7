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
// The scoring kernels quantize the activation vector dynamically (per
// vector / per row, symmetric as above), accumulate the integer dot product
// in int32 — exact: 2^16 terms x 127^2 < 2^31 — and apply the combined
// float scale once per output. Accumulation order therefore does not round
// at all until the final dequant multiply; the tier's error is entirely the
// two quantization grids.
//
// Column blocks: the packed ensemble beta is [L x C*n] with instance c
// owning columns [c*n, (c+1)*n). QuantizedMatrix quantizes per column, so a
// block can be re-quantized in isolation (quantize_block) when one
// instance's master beta mutates — the quantization-epoch discipline in
// model/multi_instance.cpp.
#pragma once

#include <cstdint>
#include <span>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

/// int8 replica of an f64 matrix: packed codes plus one float scale per
/// column (symmetric, zero-point 0).
struct QuantizedMatrix {
  MatrixI8 q;                   ///< Codes in [-127, 127], row-major.
  AlignedVector<float> scales;  ///< One scale per column; 0 for zero columns.

  std::size_t rows() const { return q.rows(); }
  std::size_t cols() const { return q.cols(); }

  /// Dequantized value at (r, c) — test/debug accessor, not a kernel.
  float dequant(std::size_t r, std::size_t c) const {
    return static_cast<float>(q(r, c)) * scales[c];
  }

  /// Heap bytes of the replica (codes + scales) — the stream-density
  /// numerator of the i8 tier.
  std::size_t memory_bytes() const {
    return q.memory_bytes() + scales.capacity() * sizeof(float);
  }
};

/// Quantizes all of `src` into `out` (resized; grow-only storage).
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
/// quantizer: both i8 scoring kernels quantize f64 hidden rows through it.
float quantize_vector(std::span<const double> x, std::span<std::int8_t> q);

/// y[j] = (sum_i q_x[i] * A.q[i][j]) * x_scale * A.scales[j] — the i8 twin
/// of matvec_transposed (y = A^T x, shapes [m,n]^T x [m] -> [n]). The inner
/// sum is exact int32; `acc` is caller scratch of length >= n.
void i8_matvec_transposed_dequant(const QuantizedMatrix& a,
                                  std::span<const std::int8_t> q_x,
                                  float x_scale, std::span<std::int32_t> acc,
                                  std::span<float> y);

/// C = A * B with per-row dynamic quantization of A (f64 rows, through
/// quantize_vector) against the static per-column replica B. Row r of C is
/// bit-identical to i8_matvec_transposed_dequant of row r's codes, so a row
/// reads the same whatever block it is in. C is resized and fully
/// overwritten; q_row and acc are caller scratch (length >= A.cols() and
/// B.cols()). Row r uses scale_r = max_j |A[r][j]| / 127, so C[r][j]
/// carries error from both grids; the tier equivalence harness owns the
/// budget.
void i8_gemm_dequant(ConstMatrixView a, const QuantizedMatrix& b,
                     MatrixF32& c, std::span<std::int8_t> q_row,
                     std::span<std::int32_t> acc);

}  // namespace edgedrift::linalg
