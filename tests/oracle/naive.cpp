#include "oracle/naive.hpp"

#include <algorithm>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg::naive {
namespace {

// The pre-SIMD tile edge: three tiles of doubles in a 32 kB L1.
constexpr std::size_t kBlock = 64;

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  EDGEDRIFT_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  Matrix c(a.rows(), n);
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kBlock) {
    const std::size_t i1 = std::min(a.rows(), i0 + kBlock);
    for (std::size_t k0 = 0; k0 < k_dim; k0 += kBlock) {
      const std::size_t k1 = std::min(k_dim, k0 + kBlock);
      for (std::size_t i = i0; i < i1; ++i) {
        const double* arow = a.data() + i * k_dim;
        double* crow = c.data() + i * n;
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = arow[k];
          if (aik == 0.0) continue;
          const double* brow = b.data() + k * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  EDGEDRIFT_ASSERT(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  Matrix c(m, n);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.data() + k * m;
    const double* brow = b.data() + k * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  EDGEDRIFT_ASSERT(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  const std::size_t k_dim = a.cols();
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * k_dim;
    double* crow = c.data() + i * b.rows();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data() + j * k_dim;
      double acc = 0.0;
      for (std::size_t k = 0; k < k_dim; ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
  return c;
}

void matvec(const Matrix& a, std::span<const double> x, std::span<double> y) {
  EDGEDRIFT_ASSERT(a.cols() == x.size(), "matvec input size mismatch");
  EDGEDRIFT_ASSERT(a.rows() == y.size(), "matvec output size mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += arow[j] * x[j];
    y[i] = acc;
  }
}

void matvec_transposed(const Matrix& a, std::span<const double> x,
                       std::span<double> y) {
  EDGEDRIFT_ASSERT(a.rows() == x.size(), "matvec_t input size mismatch");
  EDGEDRIFT_ASSERT(a.cols() == y.size(), "matvec_t output size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
}

void ger(Matrix& a, double alpha, std::span<const double> u,
         std::span<const double> v) {
  EDGEDRIFT_ASSERT(a.rows() == u.size() && a.cols() == v.size(),
                   "ger shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double scale = alpha * u[i];
    if (scale == 0.0) continue;
    double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) arow[j] += scale * v[j];
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  EDGEDRIFT_ASSERT(a.size() == b.size(), "dot size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace edgedrift::linalg::naive
