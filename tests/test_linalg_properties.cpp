// Parameterized property sweeps for the linear-algebra substrate, swept
// across matrix sizes: factorization identities and GEMM algebraic laws.
#include <gtest/gtest.h>

#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/linalg.hpp"

namespace {

using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;
namespace linalg = edgedrift::linalg;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a = Matrix::random_gaussian(n, n, rng);
  Matrix spd = linalg::matmul_at_b(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

class SizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SizeSweep, LuSolveResidualIsTiny) {
  const std::size_t n = GetParam();
  Rng rng(n * 3 + 1);
  const Matrix a = random_spd(n, rng);
  std::vector<double> b(n), x(n), residual(n);
  for (auto& v : b) v = rng.gaussian();
  const auto f = linalg::lu_factor(a);
  ASSERT_TRUE(f.has_value());
  linalg::lu_solve(*f, b, x);
  linalg::matvec(a, x, residual);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(residual[i], b[i], 1e-8 * (1.0 + std::abs(b[i])));
  }
}

TEST_P(SizeSweep, CholeskyAgreesWithLuOnSpd) {
  const std::size_t n = GetParam();
  Rng rng(n * 5 + 2);
  const Matrix a = random_spd(n, rng);
  const auto chol = linalg::spd_inverse(a);
  const auto lu = linalg::inverse(a);
  ASSERT_TRUE(chol.has_value());
  ASSERT_TRUE(lu.has_value());
  EXPECT_LT(Matrix::max_abs_diff(*chol, *lu), 1e-7);
}

TEST_P(SizeSweep, GemmIsAssociativeWithinTolerance) {
  const std::size_t n = GetParam();
  Rng rng(n * 13 + 5);
  const Matrix a = Matrix::random_gaussian(n, n, rng);
  const Matrix b = Matrix::random_gaussian(n, n, rng);
  const Matrix c = Matrix::random_gaussian(n, n, rng);
  const Matrix left = linalg::matmul(linalg::matmul(a, b), c);
  const Matrix right = linalg::matmul(a, linalg::matmul(b, c));
  EXPECT_LT(Matrix::max_abs_diff(left, right),
            1e-9 * static_cast<double>(n) * static_cast<double>(n));
}

TEST_P(SizeSweep, TransposeDistributesOverProduct) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 6);
  const Matrix a = Matrix::random_gaussian(n, n + 2, rng);
  const Matrix b = Matrix::random_gaussian(n + 2, n + 1, rng);
  const Matrix lhs = linalg::matmul(a, b).transposed();
  const Matrix rhs = linalg::matmul(b.transposed(), a.transposed());
  EXPECT_LT(Matrix::max_abs_diff(lhs, rhs), 1e-10);
}

TEST_P(SizeSweep, RegularizedPinvShrinksWithLambda) {
  // Larger ridge => smaller solution norm (shrinkage property).
  const std::size_t n = GetParam();
  Rng rng(n * 19 + 7);
  const Matrix a = Matrix::random_gaussian(3 * n, n, rng);
  const Matrix b = Matrix::random_gaussian(3 * n, 1, rng);
  double previous_norm = 1e300;
  for (const double lambda : {1e-6, 1e-2, 1.0, 100.0}) {
    const Matrix x = linalg::ridge_least_squares(a, b, lambda);
    double norm = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) norm += x(i, 0) * x(i, 0);
    EXPECT_LE(norm, previous_norm * (1.0 + 1e-9));
    previous_norm = norm;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SizeSweep,
                         ::testing::Values<std::size_t>(2, 5, 13, 22, 40));

}  // namespace
