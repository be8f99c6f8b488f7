// Incremental inverse update.
//
// The kernel that makes OS-ELM "sequential": with training batch size fixed
// to 1 (as the paper does, Section 2.2.1) the covariance inverse P is
// maintained by the Sherman–Morrison identity, eliminating every matrix
// inversion after the initial training phase. Tests check it against a
// direct inverse (linalg/solve.hpp).
#pragma once

#include <span>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

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

}  // namespace edgedrift::linalg
