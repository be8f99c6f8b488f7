// int8 quantization kernels (see quant.hpp for the scheme and the error
// model). The integer accumulations run on the simd.hpp i8 lanes (AVX2
// maddubs / NEON widening-mla / portable scalar): they are exact in int32,
// so lane width and the two-row pairing below cannot change the result —
// every backend produces the bit-identical accumulator the scalar loop
// would.
#include "edgedrift/linalg/quant.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {
namespace {

constexpr float kQMax = 127.0f;

std::int8_t encode(double v, float inv_scale) {
  // round-half-away-from-zero, clamped to the symmetric code domain. lround
  // (not nearbyint) so the grid does not depend on the ambient FP rounding
  // mode.
  const long code = std::lround(v * static_cast<double>(inv_scale));
  return static_cast<std::int8_t>(std::clamp(code, -127L, 127L));
}

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
  for (std::size_t j = 0; j < width; ++j) scales[j] /= kQMax;
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const double* srow = src.data() + r * src.cols() + col_begin;
    std::int8_t* qrow = out.q.data() + r * out.q.cols() + col_begin;
    for (std::size_t j = 0; j < width; ++j) {
      qrow[j] = scales[j] == 0.0f ? std::int8_t{0}
                                  : encode(srow[j], 1.0f / scales[j]);
    }
  }
}

}  // namespace

void quantize(const Matrix& src, QuantizedMatrix& out) {
  out.q.resize_discard(src.rows(), src.cols());
  if (out.scales.size() < src.cols()) out.scales.resize(src.cols());
  quantize_columns(src, out, 0, src.cols());
}

void quantize_block(const Matrix& src, QuantizedMatrix& out,
                    std::size_t col_begin, std::size_t width) {
  EDGEDRIFT_ASSERT(out.q.rows() == src.rows() && out.q.cols() == src.cols(),
                   "quantize_block shape mismatch");
  EDGEDRIFT_ASSERT(col_begin + width <= src.cols(),
                   "quantize_block column range out of bounds");
  quantize_columns(src, out, col_begin, col_begin + width);
}

float quantize_vector(std::span<const double> x, std::span<std::int8_t> q) {
  EDGEDRIFT_DASSERT(x.size() == q.size(), "quantize_vector size mismatch");
  double maxabs = 0.0;
  for (const double v : x) maxabs = std::max(maxabs, std::abs(v));
  if (maxabs == 0.0) {
    std::fill(q.begin(), q.end(), std::int8_t{0});
    return 0.0f;
  }
  const float scale = static_cast<float>(maxabs) / kQMax;
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < x.size(); ++i) q[i] = encode(x[i], inv);
  return scale;
}

void i8_matvec_transposed_dequant(const QuantizedMatrix& a,
                                  std::span<const std::int8_t> q_x,
                                  float x_scale, std::span<std::int32_t> acc,
                                  std::span<float> y) {
  EDGEDRIFT_ASSERT(a.rows() == q_x.size(), "i8 matvec_t input size mismatch");
  EDGEDRIFT_ASSERT(a.cols() == y.size(), "i8 matvec_t output size mismatch");
  EDGEDRIFT_ASSERT(acc.size() >= a.cols(), "i8 matvec_t scratch too small");
  const std::size_t n = a.cols();
  std::int32_t* EDGEDRIFT_RESTRICT ap = acc.data();
  std::fill(ap, ap + n, 0);
#if defined(EDGEDRIFT_HAVE_I8_VNNI)
  if (simd::i8_vnni_available()) {
    // Quad dispatch for the VNNI lane: gather the next four nonzero rows,
    // feed them through vpdpbusd (exact int32 — same accumulator the pair
    // path produces), then flush any sub-quad remainder through the
    // maddubs kernels. All three paths are bit-identical.
    std::int32_t xs[4];
    const std::int8_t* rows[4];
    std::size_t k = 0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (q_x[i] == 0) continue;
      xs[k] = q_x[i];
      rows[k] = a.q.data() + i * n;
      if (++k == 4) {
        simd::i8_scaled_accumulate4_vnni(xs, rows, ap, n);
        k = 0;
      }
    }
    if (k >= 2) {
      simd::i8_scaled_accumulate2(static_cast<std::int8_t>(xs[0]), rows[0],
                                  static_cast<std::int8_t>(xs[1]), rows[1],
                                  ap, n);
      if (k == 3) {
        simd::i8_scaled_accumulate(static_cast<std::int8_t>(xs[2]), rows[2],
                                   ap, n);
      }
    } else if (k == 1) {
      simd::i8_scaled_accumulate(static_cast<std::int8_t>(xs[0]), rows[0],
                                 ap, n);
    }
    const float* EDGEDRIFT_RESTRICT vsp = a.scales.data();
    for (std::size_t j = 0; j < n; ++j) {
      y[j] = static_cast<float>(ap[j]) * x_scale * vsp[j];
    }
    return;
  }
#endif
  // Row-pair dispatch: zero codes contribute nothing and are skipped; the
  // surviving rows go through the fused two-row kernel (one pass over the
  // accumulators per pair) with a single-row call for the odd tail.
  std::size_t i = 0;
  while (i < a.rows()) {
    if (q_x[i] == 0) {
      ++i;
      continue;
    }
    std::size_t i2 = i + 1;
    while (i2 < a.rows() && q_x[i2] == 0) ++i2;
    if (i2 < a.rows()) {
      simd::i8_scaled_accumulate2(q_x[i], a.q.data() + i * n, q_x[i2],
                                  a.q.data() + i2 * n, ap, n);
      i = i2 + 1;
    } else {
      simd::i8_scaled_accumulate(q_x[i], a.q.data() + i * n, ap, n);
      i = i2;
    }
  }
  const float* EDGEDRIFT_RESTRICT sp = a.scales.data();
  for (std::size_t j = 0; j < n; ++j) {
    y[j] = static_cast<float>(ap[j]) * x_scale * sp[j];
  }
}

void i8_gemm_dequant(ConstMatrixView a, const QuantizedMatrix& b,
                     MatrixF32& c, std::span<std::int8_t> q_row,
                     std::span<std::int32_t> acc) {
  EDGEDRIFT_ASSERT(a.cols() == b.rows(), "i8 gemm shape mismatch");
  EDGEDRIFT_ASSERT(q_row.size() >= a.cols(), "i8 gemm row scratch too small");
  c.resize_discard(a.rows(), b.cols());
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  std::span<std::int8_t> qr = q_row.subspan(0, k_dim);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float row_scale = quantize_vector(a.row(r), qr);
    std::span<float> crow{c.data() + r * n, n};
    if (row_scale == 0.0f) {
      std::fill(crow.begin(), crow.end(), 0.0f);
      continue;
    }
    i8_matvec_transposed_dequant(b, qr, row_scale, acc, crow);
  }
}

}  // namespace edgedrift::linalg
