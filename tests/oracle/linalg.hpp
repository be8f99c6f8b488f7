// Linear-algebra routines only the tests call: LU with partial pivoting
// and the general inverse it backs, the ridge pseudo-inverse and least
// squares, C = A * B^T, the L2 distance and the L1 norm. They check the
// library's Cholesky path and incremental inverse updates against an
// independent route. The library's own solvers are in linalg/solve.hpp.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

/// LU factorization with partial pivoting: P*A = L*U packed into `lu`.
struct LuFactorization {
  Matrix lu;                     ///< L (unit diagonal, below) and U (on/above).
  std::vector<std::size_t> piv;  ///< Row permutation applied to A.
  int sign = 1;                  ///< Permutation parity (for determinants).
};

/// Factors a square matrix. Returns nullopt when A is numerically singular.
std::optional<LuFactorization> lu_factor(const Matrix& a);

/// Solves A x = b given the factorization. b and x have length n.
void lu_solve(const LuFactorization& f, std::span<const double> b,
              std::span<double> x);

/// General inverse via LU. Returns nullopt when singular.
std::optional<Matrix> inverse(const Matrix& a);

/// Ridge pseudo-inverse pinv(A) = (A^T A + lambda I)^-1 A^T.
Matrix regularized_pinv(const Matrix& a, double lambda);

/// Solves min ||A X - B||^2 + lambda ||X||^2 (ridge least squares).
Matrix ridge_least_squares(const Matrix& a, const Matrix& b, double lambda);

/// C = A * B^T without materializing B^T.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// Sum of |a_i|.
double norm1(std::span<const double> a);

/// L2 distance between two points.
double l2_distance(std::span<const double> a, std::span<const double> b);

}  // namespace edgedrift::linalg
