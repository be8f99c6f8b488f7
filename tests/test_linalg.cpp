// Unit and property tests for the linear-algebra substrate: matrix basics,
// GEMM kernels, factorizations, and the incremental inverse updates that
// OS-ELM's sequential training rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/updates.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/rng.hpp"

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

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  const Matrix m = Matrix::random_gaussian(4, 7, rng);
  const Matrix mtt = m.transposed().transposed();
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(m, mtt), 0.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, IdentityActsAsNeutral) {
  Rng rng(2);
  const Matrix m = Matrix::random_gaussian(5, 5, rng);
  const Matrix i = Matrix::identity(5);
  EXPECT_LT(Matrix::max_abs_diff(linalg::matmul(m, i), m), 1e-12);
  EXPECT_LT(Matrix::max_abs_diff(linalg::matmul(i, m), m), 1e-12);
}

TEST(Matrix, SetRowAndRowView) {
  Matrix m(2, 3);
  const std::vector<double> row{7, 8, 9};
  m.set_row(1, row);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  auto view = m.row(1);
  view[2] = 11.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 11.0);
}

TEST(Gemm, MatchesManualSmallCase) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  const Matrix c = linalg::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Gemm, AtBMatchesExplicitTranspose) {
  Rng rng(3);
  const Matrix a = Matrix::random_gaussian(17, 5, rng);
  const Matrix b = Matrix::random_gaussian(17, 9, rng);
  const Matrix expected = linalg::matmul(a.transposed(), b);
  EXPECT_LT(Matrix::max_abs_diff(linalg::matmul_at_b(a, b), expected), 1e-10);
}

TEST(Gemm, ABtMatchesExplicitTranspose) {
  Rng rng(4);
  const Matrix a = Matrix::random_gaussian(6, 11, rng);
  const Matrix b = Matrix::random_gaussian(8, 11, rng);
  const Matrix expected = linalg::matmul(a, b.transposed());
  EXPECT_LT(Matrix::max_abs_diff(linalg::matmul_a_bt(a, b), expected), 1e-10);
}

TEST(Gemm, ParallelMatchesSerial) {
  Rng rng(5);
  const Matrix a = Matrix::random_gaussian(150, 90, rng);
  const Matrix b = Matrix::random_gaussian(90, 120, rng);
  Matrix c;
  linalg::matmul_parallel_into(a, b, c);
  EXPECT_LT(Matrix::max_abs_diff(c, linalg::matmul(a, b)), 1e-10);
}

TEST(Gemm, MatvecAndTransposedMatvec) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  std::vector<double> x{1, 1};
  std::vector<double> y(3);
  linalg::matvec(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);

  std::vector<double> z{1, 0, 1};
  std::vector<double> w(2);
  linalg::matvec_transposed(a, z, w);
  EXPECT_DOUBLE_EQ(w[0], 6.0);
  EXPECT_DOUBLE_EQ(w[1], 8.0);
}

TEST(Gemm, GerRankOneUpdate) {
  Matrix a(2, 2);
  std::vector<double> u{1, 2};
  std::vector<double> v{3, 4};
  linalg::ger_block(a, 0, 0.5, u, v);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
}

TEST(Solve, LuSolveRecoversKnownSolution) {
  Matrix a{{4, 3}, {6, 3}};
  std::vector<double> x_true{1, 2};
  std::vector<double> b(2);
  linalg::matvec(a, x_true, b);
  const auto f = linalg::lu_factor(a);
  ASSERT_TRUE(f.has_value());
  std::vector<double> x(2);
  linalg::lu_solve(*f, b, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Solve, LuDetectsSingularMatrix) {
  Matrix singular{{1, 2}, {2, 4}};
  EXPECT_FALSE(linalg::lu_factor(singular).has_value());
}

TEST(Solve, InverseTimesOriginalIsIdentity) {
  Rng rng(6);
  const Matrix a = random_spd(8, rng);
  const auto inv = linalg::inverse(a);
  ASSERT_TRUE(inv.has_value());
  EXPECT_LT(Matrix::max_abs_diff(linalg::matmul(a, *inv),
                                 Matrix::identity(8)),
            1e-9);
}

TEST(Solve, CholeskyReconstructsSpdMatrix) {
  Rng rng(7);
  const Matrix a = random_spd(6, rng);
  const auto l = linalg::cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_LT(Matrix::max_abs_diff(linalg::matmul_a_bt(*l, *l), a), 1e-9);
}

TEST(Solve, CholeskyRejectsIndefiniteMatrix) {
  Matrix indefinite{{1, 2}, {2, 1}};  // Eigenvalues 3 and -1.
  EXPECT_FALSE(linalg::cholesky(indefinite).has_value());
}

TEST(Solve, SpdInverseMatchesLuInverse) {
  Rng rng(8);
  const Matrix a = random_spd(7, rng);
  const auto spd_inv = linalg::spd_inverse(a);
  const auto lu_inv = linalg::inverse(a);
  ASSERT_TRUE(spd_inv.has_value());
  ASSERT_TRUE(lu_inv.has_value());
  EXPECT_LT(Matrix::max_abs_diff(*spd_inv, *lu_inv), 1e-8);
}

TEST(Solve, RegularizedPinvSolvesLeastSquares) {
  // Overdetermined consistent system: pinv must recover the solution as
  // lambda -> 0.
  Rng rng(9);
  const Matrix a = Matrix::random_gaussian(20, 4, rng);
  const Matrix x_true = Matrix::random_gaussian(4, 2, rng);
  const Matrix b = linalg::matmul(a, x_true);
  const Matrix x = linalg::matmul(linalg::regularized_pinv(a, 1e-10), b);
  EXPECT_LT(Matrix::max_abs_diff(x, x_true), 1e-5);
}

TEST(Solve, RidgeLeastSquaresMatchesPinvPath) {
  Rng rng(10);
  const Matrix a = Matrix::random_gaussian(15, 5, rng);
  const Matrix b = Matrix::random_gaussian(15, 3, rng);
  const double lambda = 0.1;
  const Matrix via_pinv =
      linalg::matmul(linalg::regularized_pinv(a, lambda), b);
  const Matrix direct = linalg::ridge_least_squares(a, b, lambda);
  EXPECT_LT(Matrix::max_abs_diff(via_pinv, direct), 1e-9);
}

TEST(Updates, OselmPUpdateMatchesGramAccumulation) {
  // P_k = (H_k^T H_k + lambda I)^-1 must hold after sequential updates.
  Rng rng(12);
  const std::size_t h_dim = 5;
  const double lambda = 0.5;
  Matrix p(h_dim, h_dim);
  for (std::size_t i = 0; i < h_dim; ++i) p(i, i) = 1.0 / lambda;

  Matrix gram(h_dim, h_dim);
  for (std::size_t i = 0; i < h_dim; ++i) gram(i, i) = lambda;

  std::vector<double> scratch(h_dim);
  for (int step = 0; step < 40; ++step) {
    std::vector<double> h(h_dim);
    for (auto& e : h) e = rng.gaussian();
    linalg::oselm_p_update(p, h, 1.0, scratch);
    linalg::ger_block(gram, 0, 1.0, h, h);
  }
  const auto direct = linalg::inverse(gram);
  ASSERT_TRUE(direct.has_value());
  EXPECT_LT(Matrix::max_abs_diff(p, *direct), 1e-7);
}

TEST(Updates, OselmPUpdateWithForgettingDiscountsGram) {
  // With forgetting alpha: P_k^-1 = alpha * P_{k-1}^-1 + h h^T.
  Rng rng(13);
  const std::size_t h_dim = 4;
  const double alpha = 0.9;
  Matrix p = Matrix::identity(h_dim);
  Matrix inv_p = Matrix::identity(h_dim);  // Tracks P^-1 directly.

  std::vector<double> scratch(h_dim);
  for (int step = 0; step < 25; ++step) {
    std::vector<double> h(h_dim);
    for (auto& e : h) e = rng.gaussian();
    linalg::oselm_p_update(p, h, alpha, scratch);
    inv_p *= alpha;
    linalg::ger_block(inv_p, 0, 1.0, h, h);
  }
  const auto direct = linalg::inverse(inv_p);
  ASSERT_TRUE(direct.has_value());
  EXPECT_LT(Matrix::max_abs_diff(p, *direct), 1e-7);
}

TEST(VectorOps, DistancesAndNorms) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{4, 6, 3};
  EXPECT_DOUBLE_EQ(linalg::l1_distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(linalg::squared_l2_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(linalg::l2_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(linalg::norm1(a), 6.0);
  EXPECT_DOUBLE_EQ(linalg::norm2(std::vector<double>{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(linalg::dot(a, b), 25.0);
}

TEST(VectorOps, RunningMeanUpdateSequence) {
  std::vector<double> mean{0.0};
  const std::vector<double> samples{2.0, 4.0, 6.0};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::vector<double> x{samples[i]};
    linalg::running_mean_update(mean, x, i);
  }
  EXPECT_DOUBLE_EQ(mean[0], 4.0);
}

TEST(VectorOps, EwmaUpdateConvergesToConstant) {
  std::vector<double> mean{0.0};
  const std::vector<double> x{10.0};
  for (int i = 0; i < 200; ++i) linalg::ewma_update(mean, x, 0.9);
  EXPECT_NEAR(mean[0], 10.0, 1e-6);
}

TEST(VectorOps, MeanAndStddev) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(linalg::mean(v), 5.0);
  EXPECT_DOUBLE_EQ(linalg::stddev_population(v), 2.0);
}

TEST(VectorOps, EmptyInputsAreSafe) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(linalg::mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(linalg::stddev_population(empty), 0.0);
}

}  // namespace
