#include "edgedrift/linalg/updates.hpp"

#include <cmath>
#include <optional>
#include <vector>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {

bool sherman_morrison_update(Matrix& p, std::span<const double> u,
                             std::span<const double> v,
                             std::span<double> pu_scratch,
                             std::span<double> vtp_scratch) {
  const std::size_t n = p.rows();
  EDGEDRIFT_ASSERT(p.cols() == n, "P must be square");
  EDGEDRIFT_ASSERT(u.size() == n && v.size() == n,
                   "sherman_morrison size mismatch");
  EDGEDRIFT_ASSERT(pu_scratch.size() == n && vtp_scratch.size() == n,
                   "sherman_morrison scratch size mismatch");
  matvec(p, u, pu_scratch);
  matvec_transposed(p, v, vtp_scratch);
  const double denom = 1.0 + dot(v, pu_scratch);
  if (std::abs(denom) < 1e-13) return false;
  const double scale = -1.0 / denom;
  ger(p, scale, pu_scratch, vtp_scratch);
  return true;
}

bool sherman_morrison_update(Matrix& p, std::span<const double> u,
                             std::span<const double> v) {
  std::vector<double> pu(p.rows()), vtp(p.rows());
  return sherman_morrison_update(p, u, v, pu, vtp);
}

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

bool woodbury_update(Matrix& p, const Matrix& u, const Matrix& v) {
  const std::size_t n = p.rows();
  const std::size_t k = u.cols();
  EDGEDRIFT_ASSERT(p.cols() == n, "P must be square");
  EDGEDRIFT_ASSERT(u.rows() == n && v.rows() == n && v.cols() == k,
                   "woodbury shape mismatch");
  // PU: n x k, core = I + V^T P U: k x k.
  const Matrix pu = matmul(p, u);
  Matrix core = matmul_at_b(v, pu);
  for (std::size_t i = 0; i < k; ++i) core(i, i) += 1.0;
  const std::optional<LuFactorization> lu = lu_factor(core);
  if (!lu.has_value()) return false;
  // P -= PU * core^-1 * (V^T P).
  p -= matmul(pu, lu_solve_matrix(*lu, matmul_at_b(v, p)));
  return true;
}

}  // namespace edgedrift::linalg
