// Vectorized matrix kernels over the simd.hpp backend layer.
//
// The GEMM is a register-blocked microkernel: B is packed once per call
// into k-major panels of NR columns (NR = two SIMD vectors), and each
// MR x NR output tile is held in registers across the whole k loop —
// MR*2 accumulator vectors, two B loads and one A broadcast per k step,
// every update a fused multiply-add on the SIMD backends.
//
// Bit-identity contract (docs/ARCHITECTURE.md): each C element is a single
// ascending-k madd chain seeded from the existing C value. That makes the
// microkernel round exactly like matvec_transposed()'s per-element chain,
// which is what keeps Pipeline::process_rows() bit-identical to
// process() within a build. Scalar row/column tails use simd::madd(), the
// scalar op with the same rounding as the vector lanes.
#include "edgedrift/linalg/gemm.hpp"

#include <algorithm>
#include <vector>

#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/thread_pool.hpp"

namespace edgedrift::linalg {
namespace {

using simd::VDouble;

constexpr std::size_t kMr = 4;                  // Register-tile rows.
constexpr std::size_t kNr = 2 * simd::kLanes;   // Register-tile columns.

/// Grow-only packing scratch. One per thread: concurrent GEMMs (distinct
/// PipelineManager streams) each pack into their own buffer, and the pool
/// workers of one parallel GEMM only read the caller's packed panels.
std::vector<double>& pack_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

/// Packs the column panels of B (k x n) into `packed`: first the full-width
/// kNr panels (packed[p*(k*kNr) + kk*kNr + lane] = B[kk][p*kNr + lane]),
/// then — when the n % kNr tail still holds a whole vector — one narrow
/// kLanes-wide panel in the same k-major layout. Only the final n % kLanes
/// columns run through the strided scalar path.
const double* pack_b_into(const Matrix& b, std::vector<double>& buf) {
  const std::size_t k_dim = b.rows();
  const std::size_t n = b.cols();
  const std::size_t panels = n / kNr;
  const bool narrow = (n - panels * kNr) >= simd::kLanes;
  const std::size_t need =
      panels * k_dim * kNr + (narrow ? k_dim * simd::kLanes : 0);
  if (buf.size() < need) buf.resize(need);
  double* EDGEDRIFT_RESTRICT out = buf.data();
  for (std::size_t p = 0; p < panels; ++p) {
    const double* EDGEDRIFT_RESTRICT src = b.data() + p * kNr;
    for (std::size_t kk = 0; kk < k_dim; ++kk) {
      const double* EDGEDRIFT_RESTRICT row = src + kk * n;
      for (std::size_t lane = 0; lane < kNr; ++lane) *out++ = row[lane];
    }
  }
  if (narrow) {
    const double* EDGEDRIFT_RESTRICT src = b.data() + panels * kNr;
    for (std::size_t kk = 0; kk < k_dim; ++kk) {
      const double* EDGEDRIFT_RESTRICT row = src + kk * n;
      for (std::size_t lane = 0; lane < simd::kLanes; ++lane) *out++ = row[lane];
    }
  }
  return buf.data();
}

/// Per-call packing into the thread-local scratch.
const double* pack_b(const Matrix& b) {
  return pack_b_into(b, pack_buffer());
}

/// C[0:MR_, 0:kNr] = A[0:MR_, 0:k] * panel. Accumulators live in registers
/// for the whole k loop; per element this is one ascending-k madd chain
/// seeded at zero — identical to accumulating into a pre-zeroed C, without
/// the memset traffic of zeroing the output first.
template <std::size_t MR_>
void micro_kernel(std::size_t k_dim, const double* EDGEDRIFT_RESTRICT a,
                  std::size_t lda, const double* EDGEDRIFT_RESTRICT panel,
                  double* EDGEDRIFT_RESTRICT c, std::size_t ldc) {
  VDouble acc[MR_][2];
  for (std::size_t r = 0; r < MR_; ++r) {
    acc[r][0] = simd::vzero();
    acc[r][1] = simd::vzero();
  }
  for (std::size_t kk = 0; kk < k_dim; ++kk) {
    const VDouble b0 = simd::vload(panel);
    const VDouble b1 = simd::vload(panel + simd::kLanes);
    panel += kNr;
    for (std::size_t r = 0; r < MR_; ++r) {
      const VDouble ar = simd::vbroadcast(a[r * lda + kk]);
      acc[r][0] = simd::vfmadd(ar, b0, acc[r][0]);
      acc[r][1] = simd::vfmadd(ar, b1, acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < MR_; ++r) {
    simd::vstore(c + r * ldc, acc[r][0]);
    simd::vstore(c + r * ldc + simd::kLanes, acc[r][1]);
  }
}

/// C[0:MR_, 0:kLanes] = A[0:MR_, 0:k] * narrow panel (one vector wide).
/// Same ascending-k per-element madd chain as micro_kernel, half the tile
/// width — covers the kNr-remainder columns that would otherwise fall to
/// the strided scalar tail.
template <std::size_t MR_>
void micro_kernel_narrow(std::size_t k_dim, const double* EDGEDRIFT_RESTRICT a,
                         std::size_t lda,
                         const double* EDGEDRIFT_RESTRICT panel,
                         double* EDGEDRIFT_RESTRICT c, std::size_t ldc) {
  VDouble acc[MR_];
  for (std::size_t r = 0; r < MR_; ++r) acc[r] = simd::vzero();
  for (std::size_t kk = 0; kk < k_dim; ++kk) {
    const VDouble b0 = simd::vload(panel);
    panel += simd::kLanes;
    for (std::size_t r = 0; r < MR_; ++r) {
      acc[r] = simd::vfmadd(simd::vbroadcast(a[r * lda + kk]), b0, acc[r]);
    }
  }
  for (std::size_t r = 0; r < MR_; ++r) simd::vstore(c + r * ldc, acc[r]);
}

/// C[row_lo:row_hi) = A * B with B pre-packed by pack_b(). Every element of
/// the range is fully overwritten (kernels seed their accumulators at
/// zero), so C needs no pre-zeroing. The packed panels cover the first
/// (n / kNr) * kNr columns plus one kLanes-wide narrow panel when the
/// remainder holds a whole vector; only the final n % kLanes columns use
/// the original B, with the same per-element madd chain.
void matmul_rows(ConstMatrixView a, const Matrix& b, Matrix& c,
                 std::size_t row_lo, std::size_t row_hi,
                 const double* packed) {
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  const std::size_t panels = n / kNr;
  const bool narrow = (n - panels * kNr) >= simd::kLanes;
  const double* narrow_panel = packed + panels * k_dim * kNr;
  const std::size_t tail_j = panels * kNr + (narrow ? simd::kLanes : 0);
  for (std::size_t i = row_lo; i < row_hi; i += kMr) {
    const std::size_t mr = std::min(kMr, row_hi - i);
    const double* arow = a.data() + i * k_dim;
    double* crow = c.data() + i * n;
    for (std::size_t p = 0; p < panels; ++p) {
      const double* panel = packed + p * k_dim * kNr;
      double* ctile = crow + p * kNr;
      switch (mr) {
        case 4:
          micro_kernel<4>(k_dim, arow, k_dim, panel, ctile, n);
          break;
        case 3:
          micro_kernel<3>(k_dim, arow, k_dim, panel, ctile, n);
          break;
        case 2:
          micro_kernel<2>(k_dim, arow, k_dim, panel, ctile, n);
          break;
        default:
          micro_kernel<1>(k_dim, arow, k_dim, panel, ctile, n);
          break;
      }
    }
    if (narrow) {
      double* ctile = crow + panels * kNr;
      switch (mr) {
        case 4:
          micro_kernel_narrow<4>(k_dim, arow, k_dim, narrow_panel, ctile, n);
          break;
        case 3:
          micro_kernel_narrow<3>(k_dim, arow, k_dim, narrow_panel, ctile, n);
          break;
        case 2:
          micro_kernel_narrow<2>(k_dim, arow, k_dim, narrow_panel, ctile, n);
          break;
        default:
          micro_kernel_narrow<1>(k_dim, arow, k_dim, narrow_panel, ctile, n);
          break;
      }
    }
    for (std::size_t r = 0; r < mr; ++r) {
      const double* EDGEDRIFT_RESTRICT ar = arow + r * k_dim;
      double* EDGEDRIFT_RESTRICT cr = crow + r * n;
      for (std::size_t j = tail_j; j < n; ++j) {
        double acc = 0.0;
        const double* EDGEDRIFT_RESTRICT bcol = b.data() + j;
        for (std::size_t kk = 0; kk < k_dim; ++kk) {
          acc = simd::madd(ar[kk], bcol[kk * n], acc);
        }
        cr[j] = acc;
      }
    }
  }
}

}  // namespace

Matrix matmul(ConstMatrixView a, const Matrix& b) {
  EDGEDRIFT_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c;
  c.resize_discard(a.rows(), b.cols());
  matmul_rows(a, b, c, 0, a.rows(), pack_b(b));
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(a, b, c);
  return c;
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  EDGEDRIFT_ASSERT(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  const std::size_t k_dim = a.rows();
  c.resize_zero(m, n);
  // Outer-product accumulation: contiguous on both inputs and the output,
  // one scaled_accumulate per (k, i) so every C element is a madd chain.
  for (std::size_t k = 0; k < k_dim; ++k) {
    const double* arow = a.data() + k * m;
    const double* brow = b.data() + k * n;
    for (std::size_t i = 0; i < m; ++i) {
      simd::scaled_accumulate(arow[i], brow, c.data() + i * n, n);
    }
  }
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  EDGEDRIFT_ASSERT(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k_dim = a.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.data() + i * k_dim;
    double* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      crow[j] = simd::dot_product(arow, b.data() + j * k_dim, k_dim);
    }
  }
  return c;
}

void matmul_parallel_into(ConstMatrixView a, const Matrix& b, Matrix& c) {
  EDGEDRIFT_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
  c.resize_discard(a.rows(), b.cols());
  // B is packed once by the caller; workers only read the panels. Below
  // ~1M multiply-adds the pool dispatch costs more than it saves.
  const double* packed = pack_b(b);
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  if (flops < (1u << 20)) {
    matmul_rows(a, b, c, 0, a.rows(), packed);
    return;
  }
  util::ThreadPool::global().parallel_for(
      0, a.rows(),
      [&](std::size_t lo, std::size_t hi) {
        matmul_rows(a, b, c, lo, hi, packed);
      },
      /*min_chunk=*/16);
}

void pack_gemm_b(const Matrix& b, PackedGemmB& out) {
  pack_b_into(b, out.panels);
  out.rows = b.rows();
  out.cols = b.cols();
}

void matmul_packed_parallel_into(ConstMatrixView a, const Matrix& b,
                                 const PackedGemmB& packed, Matrix& c) {
  EDGEDRIFT_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
  EDGEDRIFT_ASSERT(packed.rows == b.rows() && packed.cols == b.cols(),
                   "packed panels do not match B");
  c.resize_discard(a.rows(), b.cols());
  const double* pp = packed.panels.data();
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  if (flops < (1u << 20)) {
    matmul_rows(a, b, c, 0, a.rows(), pp);
    return;
  }
  util::ThreadPool::global().parallel_for(
      0, a.rows(),
      [&](std::size_t lo, std::size_t hi) {
        matmul_rows(a, b, c, lo, hi, pp);
      },
      /*min_chunk=*/16);
}

void matvec(const Matrix& a, std::span<const double> x, std::span<double> y) {
  EDGEDRIFT_ASSERT(a.cols() == x.size(), "matvec input size mismatch");
  EDGEDRIFT_ASSERT(a.rows() == y.size(), "matvec output size mismatch");
  const std::size_t n = a.cols();
  const double* EDGEDRIFT_RESTRICT xp = x.data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    y[i] = simd::dot_product(a.data() + i * n, xp, n);
  }
}

void matvec_transposed(const Matrix& a, std::span<const double> x,
                       std::span<double> y) {
  EDGEDRIFT_ASSERT(a.cols() == y.size(), "matvec_t output size mismatch");
  matvec_transposed_block(a, 0, x, y);
}

void matvec_transposed_block(const Matrix& a, std::size_t col_begin,
                             std::span<const double> x, std::span<double> y) {
  EDGEDRIFT_ASSERT(a.rows() == x.size(), "matvec_t input size mismatch");
  EDGEDRIFT_ASSERT(col_begin + y.size() <= a.cols(),
                   "matvec_t column block out of range");
  std::fill(y.begin(), y.end(), 0.0);
  const std::size_t n = a.cols();
  const std::size_t bn = y.size();
  double* EDGEDRIFT_RESTRICT yp = y.data();
  // Per element of y this is an ascending-i madd chain — the scalar twin of
  // the GEMM microkernel's accumulation, which keeps hidden()/predict()
  // bit-identical to hidden_batch()/score_batch() rows.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    simd::scaled_accumulate(x[i], a.data() + i * n + col_begin, yp, bn);
  }
}

void matvec_transposed(const MatrixF32& a, std::span<const float> x,
                       std::span<float> y) {
  EDGEDRIFT_ASSERT(a.rows() == x.size(), "matvec_t input size mismatch");
  EDGEDRIFT_ASSERT(a.cols() == y.size(), "matvec_t output size mismatch");
  const std::size_t n = a.cols();
  float* EDGEDRIFT_RESTRICT yp = y.data();
  if (a.rows() == 0) {
    std::fill(y.begin(), y.end(), 0.0f);
    return;
  }
  // Row 0 seeds the chain through scaled_copy — no pre-zeroing pass.
  simd::scaled_copy(x[0], a.data(), yp, n);
  for (std::size_t i = 1; i < a.rows(); ++i) {
    simd::scaled_accumulate(x[i], a.data() + i * n, yp, n);
  }
}

namespace {

/// C[row_lo:row_hi) = A * B, f32. Each output row is a matvec_transposed of
/// B against A's row: scaled_copy seeds at k=0, ascending-k
/// scaled_accumulate links after — one maddf chain per element, no output
/// pre-zeroing, B read straight from cache.
void matmul_rows_f32(ConstMatrixViewT<float> a, const MatrixF32& b,
                     MatrixF32& c, std::size_t row_lo, std::size_t row_hi) {
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    const float* EDGEDRIFT_RESTRICT arow = a.data() + i * k_dim;
    float* EDGEDRIFT_RESTRICT crow = c.data() + i * n;
    if (k_dim == 0) {
      std::fill(crow, crow + n, 0.0f);
      continue;
    }
    simd::scaled_copy(arow[0], b.data(), crow, n);
    for (std::size_t kk = 1; kk < k_dim; ++kk) {
      simd::scaled_accumulate(arow[kk], b.data() + kk * n, crow, n);
    }
  }
}

}  // namespace

void matmul_parallel_into(ConstMatrixViewT<float> a, const MatrixF32& b,
                          MatrixF32& c) {
  EDGEDRIFT_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
  c.resize_discard(a.rows(), b.cols());
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  if (flops < (1u << 20)) {
    matmul_rows_f32(a, b, c, 0, a.rows());
    return;
  }
  util::ThreadPool::global().parallel_for(
      0, a.rows(),
      [&](std::size_t lo, std::size_t hi) { matmul_rows_f32(a, b, c, lo, hi); },
      /*min_chunk=*/16);
}

void ger_block(Matrix& a, std::size_t col_begin, double alpha,
               std::span<const double> u, std::span<const double> v) {
  EDGEDRIFT_ASSERT(a.rows() == u.size(), "ger_block row mismatch");
  EDGEDRIFT_ASSERT(col_begin + v.size() <= a.cols(),
                   "ger_block column block out of range");
  const std::size_t n = a.cols();
  const std::size_t bn = v.size();
  const double* EDGEDRIFT_RESTRICT vp = v.data();
  // One scaled_accumulate per row of the strided block: each block element
  // receives exactly the madd a dense matrix of the block's shape would.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    simd::scaled_accumulate(alpha * u[i], vp, a.data() + i * n + col_begin,
                            bn);
  }
}

}  // namespace edgedrift::linalg
