// int8 quantization kernels (see quant.hpp for the scheme, the tile layout
// and the error model). The integer dot products run on the simd.hpp tile
// lanes (VNNI vpdpbusd / AVX2 maddubs / portable loop) and the activation
// quantizer on its simd.hpp lanes (AVX2 / portable): the sums are exact in
// int32 and the codes follow one rounding rule, so the lane cannot change
// the result — every backend produces the bit-identical output the scalar
// loops would.
#include "edgedrift/linalg/quant.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {
namespace {

/// Per-column max|src| over rows [all] and columns [col_begin, col_end),
/// written to maxabs[0 .. col_end-col_begin). Row-major sweep.
void column_maxabs(const Matrix& src, std::size_t col_begin,
                   std::size_t col_end, float* maxabs) {
  const std::size_t width = col_end - col_begin;
  std::fill(maxabs, maxabs + width, 0.0f);
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const double* row = src.data() + r * src.cols() + col_begin;
    for (std::size_t j = 0; j < width; ++j) {
      const float mag = static_cast<float>(std::abs(row[j]));
      if (mag > maxabs[j]) maxabs[j] = mag;
    }
  }
}

void quantize_columns(const Matrix& src, QuantizedMatrix& out,
                      std::size_t col_begin, std::size_t col_end) {
  const std::size_t width = col_end - col_begin;
  // Scales first (one pass), then codes (second pass). Scratch-free: the
  // scales array itself holds the maxabs values until they are divided.
  float* scales = out.scales.data() + col_begin;
  column_maxabs(src, col_begin, col_end, scales);
  for (std::size_t j = 0; j < width; ++j) scales[j] /= simd::kI8CodeMax;
  std::int8_t* tiles = out.tiles.data();
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const double* srow = src.data() + r * src.cols() + col_begin;
    for (std::size_t j = 0; j < width; ++j) {
      tiles[out.tile_offset(r, col_begin + j)] =
          scales[j] == 0.0f ? std::int8_t{0}
                            : simd::i8_encode(srow[j], 1.0f / scales[j]);
    }
  }
}

}  // namespace

void quantize(const Matrix& src, QuantizedMatrix& out) {
  out.reshape(src.rows(), src.cols());
  quantize_columns(src, out, 0, src.cols());
}

void quantize_block(const Matrix& src, QuantizedMatrix& out,
                    std::size_t col_begin, std::size_t width) {
  EDGEDRIFT_ASSERT(out.rows() == src.rows() && out.cols() == src.cols(),
                   "quantize_block shape mismatch");
  EDGEDRIFT_ASSERT(col_begin + width <= src.cols(),
                   "quantize_block column range out of bounds");
  quantize_columns(src, out, col_begin, col_begin + width);
}

float quantize_vector(std::span<const double> x, std::span<std::int8_t> q) {
  EDGEDRIFT_DASSERT(x.size() == q.size(), "quantize_vector size mismatch");
#if defined(EDGEDRIFT_SIMD_AVX2)
  return simd::i8_quantize_avx2(x.data(), q.data(), x.size());
#else
  return simd::i8_quantize_portable(x.data(), q.data(), x.size());
#endif
}

void i8_matvec_transposed_dequant(const QuantizedMatrix& a,
                                  std::span<const std::int8_t> q_x,
                                  float x_scale, std::span<float> y) {
  EDGEDRIFT_ASSERT(a.rows() == q_x.size(), "i8 matvec_t input size mismatch");
  EDGEDRIFT_ASSERT(a.cols() == y.size(), "i8 matvec_t output size mismatch");
  EDGEDRIFT_ASSERT(a.rows() <= (std::size_t{1} << 16),
                   "i8 matvec_t sums more than 2^16 products");
#if defined(EDGEDRIFT_HAVE_I8_VNNI)
  if (simd::i8_vnni_available()) {
    simd::i8_tiles_dequant_vnni(a.tiles.data(), q_x.data(), a.rows(),
                                a.cols(), x_scale, a.scales.data(), y.data());
    return;
  }
#endif
#if defined(EDGEDRIFT_SIMD_AVX2)
  simd::i8_tiles_dequant_avx2(a.tiles.data(), q_x.data(), a.rows(), a.cols(),
                              x_scale, a.scales.data(), y.data());
#else
  simd::i8_tiles_dequant_portable(a.tiles.data(), q_x.data(), a.rows(),
                                  a.cols(), x_scale, a.scales.data(),
                                  y.data());
#endif
}

}  // namespace edgedrift::linalg
