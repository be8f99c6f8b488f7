#include "oracle/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {

std::optional<LuFactorization> lu_factor(const Matrix& a) {
  EDGEDRIFT_ASSERT(a.rows() == a.cols(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  LuFactorization f{a, std::vector<std::size_t>(n), 1};
  for (std::size_t i = 0; i < n; ++i) f.piv[i] = i;

  Matrix& lu = f.lu;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best < 1e-13) return std::nullopt;
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(pivot, j));
      std::swap(f.piv[k], f.piv[pivot]);
      f.sign = -f.sign;
    }
    const double inv_diag = 1.0 / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = lu(i, k) * inv_diag;
      lu(i, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= factor * lu(k, j);
    }
  }
  return f;
}

void lu_solve(const LuFactorization& f, std::span<const double> b,
              std::span<double> x) {
  const std::size_t n = f.lu.rows();
  EDGEDRIFT_ASSERT(b.size() == n && x.size() == n, "lu_solve size mismatch");
  // Forward substitution with the permuted right-hand side.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[f.piv[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= f.lu(i, j) * x[j];
    x[i] = acc;
  }
  // Backward substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= f.lu(ii, j) * x[j];
    x[ii] = acc / f.lu(ii, ii);
  }
}

std::optional<Matrix> inverse(const Matrix& a) {
  const auto f = lu_factor(a);
  if (!f) return std::nullopt;
  // Solve A X = I column by column.
  const std::size_t n = a.rows();
  Matrix x(n, n);
  std::vector<double> col(n), sol(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::fill(col.begin(), col.end(), 0.0);
    col[c] = 1.0;
    lu_solve(*f, col, sol);
    for (std::size_t r = 0; r < n; ++r) x(r, c) = sol[r];
  }
  return x;
}

Matrix regularized_pinv(const Matrix& a, double lambda) {
  // (A^T A + lambda I)^-1 A^T.
  return matmul_a_bt(regularized_gram_inverse(a, lambda), a);
}

Matrix ridge_least_squares(const Matrix& a, const Matrix& b, double lambda) {
  EDGEDRIFT_ASSERT(a.rows() == b.rows(), "ridge shape mismatch");
  return matmul(regularized_gram_inverse(a, lambda), matmul_at_b(a, b));
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

double norm1(std::span<const double> a) {
  double total = 0.0;
  for (const double v : a) total += std::abs(v);
  return total;
}

double l2_distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_l2_distance(a, b));
}

}  // namespace edgedrift::linalg
