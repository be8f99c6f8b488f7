// Dense factorizations and solvers.
//
// The batch ELM initialization needs the regularized Gram inverse
// (H^T H + lambda I)^-1, which we compute through a Cholesky factorization
// of the SPD Gram matrix. The LU family the tests compare against is in
// tests/oracle/linalg.hpp.
#pragma once

#include <optional>
#include <span>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

/// Cholesky factorization A = L L^T of an SPD matrix.
/// Returns nullopt when A is not positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

/// Solves A x = b with a precomputed Cholesky factor L.
void cholesky_solve(const Matrix& l, std::span<const double> b,
                    std::span<double> x);

/// SPD inverse via Cholesky. Returns nullopt when not positive definite.
std::optional<Matrix> spd_inverse(const Matrix& a);

/// (A^T A + lambda I)^-1, the core of regularized least squares.
/// lambda > 0 guarantees positive definiteness.
Matrix regularized_gram_inverse(const Matrix& a, double lambda);

}  // namespace edgedrift::linalg
