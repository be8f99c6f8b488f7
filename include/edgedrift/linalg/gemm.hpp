// Matrix-multiply kernels. The blocked kernel is cache-tiled; the threaded
// variants split output rows across the global thread pool:
// matmul_parallel_into() is score_batch()'s block kernel (f64 and f32
// tiers) and the projection's hidden_batch_into(), and
// matmul_packed_parallel_into() runs the serving layer's coalesced
// projection.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

/// Reusable packed-panel cache for a B operand that is multiplied many
/// times against small row blocks — e.g. the serving layer's coalesced
/// drain projecting thousands of mega-batches through one immutable random
/// projection. pack_gemm_b() builds exactly the panel layout the per-call
/// GEMM path packs internally, so matmul_packed_parallel_into() produces
/// bit-identical results to matmul_parallel_into() while skipping the
/// per-call pack of B.
struct PackedGemmB {
  std::vector<double> panels;
  std::size_t rows = 0;  ///< k of the packed B.
  std::size_t cols = 0;  ///< n of the packed B.
};

/// Packs B's column panels into `out` (grow-only; reusable across calls).
void pack_gemm_b(const Matrix& b, PackedGemmB& out);

/// matmul_parallel_into() with B's panels supplied by a prior
/// pack_gemm_b(b, packed). `b` must be the same matrix that was packed —
/// the kernel still reads B directly for the final n % kLanes columns.
void matmul_packed_parallel_into(ConstMatrixView a, const Matrix& b,
                                 const PackedGemmB& packed, Matrix& c);

/// C = A * B (shapes: [m,k] x [k,n] -> [m,n]). Cache-blocked single-thread.
/// A is a row-block view, so callers can multiply a contiguous row range of
/// a larger matrix without copying it out (Matrix converts implicitly).
Matrix matmul(ConstMatrixView a, const Matrix& b);

/// C = A^T * B without materializing A^T.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// matmul_at_b into a caller-provided matrix (resized if needed).
void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T without materializing B^T.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-provided matrix (resized if needed), with the
/// global thread pool for large problems. The allocation-free variant the
/// batch scoring hot path uses with preallocated workspaces. Row-
/// partitioned, so per-element results stay bit-identical to matmul(). C is
/// fully overwritten — the kernels seed their accumulators at zero, so no
/// pre-zeroing pass runs over the output.
void matmul_parallel_into(ConstMatrixView a, const Matrix& b, Matrix& c);

/// y = A * x (shapes: [m,n] x [n] -> [m]). `y` must have length m.
void matvec(const Matrix& a, std::span<const double> x, std::span<double> y);

/// y = A^T * x (shapes: [m,n]^T x [m] -> [n]). `y` must have length n.
void matvec_transposed(const Matrix& a, std::span<const double> x,
                       std::span<double> y);

/// matvec_transposed() of a column block: y = A[:, col_begin :
/// col_begin + y.size())^T * x. Per element of y this is the same
/// ascending-row madd chain as matvec_transposed() on a dense matrix of the
/// block's shape, so a block and a standalone copy of it give the same bits.
void matvec_transposed_block(const Matrix& a, std::size_t col_begin,
                             std::span<const double> x, std::span<double> y);

/// f32-tier y = A^T * x (shapes: [m,n]^T x [m] -> [n]). Same ascending-row
/// accumulation shape as the f64 overload, on the float lane set; lives
/// outside the bit-identity contract (error-bounded tier).
void matvec_transposed(const MatrixF32& a, std::span<const float> x,
                       std::span<float> y);

/// f32-tier C = A * B into caller storage (resized, fully overwritten),
/// with the global thread pool for large problems. Row-streamed
/// scaled-accumulate kernel: with the ensemble-scoring shapes (k =
/// hidden_dim ~ 22, B a few tens of KB) B stays cache-resident, so the win
/// over f64 is the halved bandwidth, not a fancier tiling.
void matmul_parallel_into(ConstMatrixViewT<float> a, const MatrixF32& b,
                          MatrixF32& c);

/// Rank-1 update of a column block: A[:, col_begin : col_begin + v.size())
/// += alpha * u * v^T (u length rows; col_begin 0 with v length cols
/// updates all of A). Per element this is one madd, the same whether the
/// block is part of a wider matrix or a dense matrix of its own, so a block
/// stays bit-identical to a standalone copy updated with the same vectors —
/// what lets OS-ELM's rank-1 step train a label's block of the packed
/// ensemble beta in place (oselm/oselm.hpp).
void ger_block(Matrix& a, std::size_t col_begin, double alpha,
               std::span<const double> u, std::span<const double> v);

}  // namespace edgedrift::linalg
