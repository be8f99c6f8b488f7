#include "edgedrift/linalg/updates.hpp"

#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {

bool oselm_p_update(Matrix& p, std::span<const double> h, double alpha,
                    std::span<double> ph_scratch) {
  const std::size_t n = p.rows();
  EDGEDRIFT_ASSERT(p.cols() == n, "P must be square");
  EDGEDRIFT_ASSERT(h.size() == n && ph_scratch.size() == n,
                   "oselm_p_update size mismatch");
  EDGEDRIFT_ASSERT(alpha > 0.0 && alpha <= 1.0,
                   "forgetting factor must be in (0, 1]");
  // ph = P h (P is symmetric, so P h == P^T h and one matvec suffices).
  matvec(p, h, ph_scratch);
  const double hph = dot(h, ph_scratch);
  const double denom = alpha + hph;
  if (!(denom > 0.0) || !std::isfinite(denom)) return false;
  // P <- (P - ph ph^T / denom) / alpha, fused into one vectorized pass:
  // prow[j] = inv_alpha * prow[j] + (-scale * phi) * ph[j].
  const double inv_alpha = 1.0 / alpha;
  const double scale = inv_alpha / denom;
  const double* EDGEDRIFT_RESTRICT ph = ph_scratch.data();
  const simd::VDouble va = simd::vbroadcast(inv_alpha);
  for (std::size_t i = 0; i < n; ++i) {
    const double neg_scale_phi = -scale * ph[i];
    double* EDGEDRIFT_RESTRICT prow = p.data() + i * n;
    const simd::VDouble vp = simd::vbroadcast(neg_scale_phi);
    std::size_t j = 0;
    for (; j + simd::kLanes <= n; j += simd::kLanes) {
      simd::vstore(prow + j,
                   simd::vfmadd(vp, simd::vload(ph + j),
                                simd::vmul(va, simd::vload(prow + j))));
    }
    for (; j < n; ++j) {
      prow[j] = simd::madd(neg_scale_phi, ph[j], inv_alpha * prow[j]);
    }
  }
  return true;
}

}  // namespace edgedrift::linalg
