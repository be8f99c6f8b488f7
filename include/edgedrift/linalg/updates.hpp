// Incremental inverse updates.
//
// These are the kernels that make OS-ELM "sequential": with training batch
// size fixed to 1 (as the paper does, Section 2.2.1) the covariance inverse
// P is maintained by the Sherman–Morrison identity, eliminating every
// matrix inversion after the initial training phase. OS-ELM trains through
// the rank-1 kernels only; the Woodbury block identity stays as the tests'
// reference that the rank-1 path computes the right inverse.
#pragma once

#include <span>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

/// Sherman–Morrison: given P = A^-1 (n x n), updates P in place to
/// (A + u v^T)^-1 = P - (P u)(v^T P) / (1 + v^T P u).
/// Returns false (leaving P untouched) when the denominator is ~0, i.e. the
/// update would make A singular.
///
/// The scratch overload is the per-sample hot path: `pu_scratch` and
/// `vtp_scratch` must each have length n and are clobbered. The
/// convenience overload allocates them per call — never use it per sample.
bool sherman_morrison_update(Matrix& p, std::span<const double> u,
                             std::span<const double> v,
                             std::span<double> pu_scratch,
                             std::span<double> vtp_scratch);
bool sherman_morrison_update(Matrix& p, std::span<const double> u,
                             std::span<const double> v);

/// OS-ELM-specialized symmetric rank-1 step with forgetting factor `alpha`:
///   P <- (1/alpha) * [ P - (P h)(h^T P) / (alpha + h^T P h) ]
/// alpha = 1 is the standard OS-ELM update; alpha in (0,1) is the ONLAD
/// forgetting mechanism. `ph_scratch` must have length n and is clobbered.
/// Returns false (leaving P untouched) when P has numerically lost positive
/// definiteness (denominator <= 0 or non-finite) — with alpha < 1 the
/// covariance grows like alpha^-t in unexcited directions, so long streams
/// eventually overflow; callers should reset P to the prior (standard RLS
/// covariance resetting) when this happens.
bool oselm_p_update(Matrix& p, std::span<const double> h, double alpha,
                    std::span<double> ph_scratch);

/// Woodbury identity for a rank-k block update:
///   (A + U V^T)^-1 = P - P U (I + V^T P U)^-1 V^T P,  with P = A^-1.
/// U is n x k, V is n x k. Returns false (leaving P untouched) when the
/// k x k core is singular. With k = 1 the identity degenerates to
/// Sherman–Morrison; the two agree to ~1e-12 relative tolerance in floating
/// point (the rank-1 kernel applies one fused ger, this one an LU solve of
/// the core). Allocates per call: it is a test reference, not a hot path.
bool woodbury_update(Matrix& p, const Matrix& u, const Matrix& v);

}  // namespace edgedrift::linalg
