#include "edgedrift/linalg/solve.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {

std::optional<Matrix> cholesky(const Matrix& a) {
  EDGEDRIFT_ASSERT(a.rows() == a.cols(), "Cholesky needs a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        if (acc <= 0.0) return std::nullopt;
        l(i, j) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  return l;
}

void cholesky_solve(const Matrix& l, std::span<const double> b,
                    std::span<double> x) {
  const std::size_t n = l.rows();
  EDGEDRIFT_ASSERT(b.size() == n && x.size() == n,
                   "cholesky_solve size mismatch");
  // L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * x[j];
    x[i] = acc / l(i, i);
  }
  // L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l(j, ii) * x[j];
    x[ii] = acc / l(ii, ii);
  }
}

std::optional<Matrix> spd_inverse(const Matrix& a) {
  auto l = cholesky(a);
  if (!l) return std::nullopt;
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0), col(n);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    cholesky_solve(*l, e, col);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
    e[c] = 0.0;
  }
  return inv;
}

Matrix regularized_gram_inverse(const Matrix& a, double lambda) {
  EDGEDRIFT_ASSERT(lambda > 0.0, "regularization must be positive");
  Matrix gram = matmul_at_b(a, a);
  for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  auto inv = spd_inverse(gram);
  EDGEDRIFT_ASSERT(inv.has_value(),
                   "regularized Gram matrix must be positive definite");
  return std::move(*inv);
}

}  // namespace edgedrift::linalg
