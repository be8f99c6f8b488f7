// Vectorized span kernels over the simd.hpp backend. The per-sample
// detector primitives (distances, running means) are the hottest scalar
// loops in the system, so they run on the same lane layer as the GEMM.
//
// Reductions (dot, distances, mean) use multiple accumulators and are
// tolerance-comparable — not bit-identical — to a naive ascending loop.
// Elementwise updates (axpy, running means) are exact per element, so their
// vectorization is rounding-neutral.
#include "edgedrift/linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::linalg {

double dot(std::span<const double> a, std::span<const double> b) {
  EDGEDRIFT_DASSERT(a.size() == b.size(), "dot size mismatch");
  return simd::dot_product(a.data(), b.data(), a.size());
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double squared_l2_distance(std::span<const double> a,
                           std::span<const double> b) {
  EDGEDRIFT_DASSERT(a.size() == b.size(), "distance size mismatch");
  using simd::VDouble;
  const double* EDGEDRIFT_RESTRICT pa = a.data();
  const double* EDGEDRIFT_RESTRICT pb = b.data();
  const std::size_t n = a.size();
  VDouble acc0 = simd::vzero();
  VDouble acc1 = simd::vzero();
  std::size_t i = 0;
  for (; i + 2 * simd::kLanes <= n; i += 2 * simd::kLanes) {
    const VDouble d0 = simd::vsub(simd::vload(pa + i), simd::vload(pb + i));
    const VDouble d1 = simd::vsub(simd::vload(pa + i + simd::kLanes),
                                  simd::vload(pb + i + simd::kLanes));
    acc0 = simd::vfmadd(d0, d0, acc0);
    acc1 = simd::vfmadd(d1, d1, acc1);
  }
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const VDouble d = simd::vsub(simd::vload(pa + i), simd::vload(pb + i));
    acc0 = simd::vfmadd(d, d, acc0);
  }
  double acc = simd::vreduce_add(simd::vadd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = pa[i] - pb[i];
    acc = simd::madd(d, d, acc);
  }
  return acc;
}

namespace {

/// The f32 squared distance body: two 8-lane accumulators, one 8-lane
/// step, a scalar maddf tail. squared_l2_distance(float) and block_mse()
/// both run it, so a block's MSE keeps the bits of the single call.
EDGEDRIFT_ALWAYS_INLINE float squared_distance_f32(
    const float* EDGEDRIFT_RESTRICT pa, const float* EDGEDRIFT_RESTRICT pb,
    std::size_t n) {
  using simd::VFloat;
  VFloat acc0 = simd::vzero_f();
  VFloat acc1 = simd::vzero_f();
  std::size_t i = 0;
  for (; i + 2 * simd::kLanesF32 <= n; i += 2 * simd::kLanesF32) {
    const VFloat d0 = simd::vsub(simd::vload(pa + i), simd::vload(pb + i));
    const VFloat d1 = simd::vsub(simd::vload(pa + i + simd::kLanesF32),
                                 simd::vload(pb + i + simd::kLanesF32));
    acc0 = simd::vfmadd(d0, d0, acc0);
    acc1 = simd::vfmadd(d1, d1, acc1);
  }
  for (; i + simd::kLanesF32 <= n; i += simd::kLanesF32) {
    const VFloat d = simd::vsub(simd::vload(pa + i), simd::vload(pb + i));
    acc0 = simd::vfmadd(d, d, acc0);
  }
  float acc = simd::vreduce_add(simd::vadd(acc0, acc1));
  for (; i < n; ++i) {
    const float d = pa[i] - pb[i];
    acc = simd::maddf(d, d, acc);
  }
  return acc;
}

}  // namespace

float squared_l2_distance(std::span<const float> a, std::span<const float> b) {
  EDGEDRIFT_DASSERT(a.size() == b.size(), "distance size mismatch");
  return squared_distance_f32(a.data(), b.data(), a.size());
}

void block_mse(std::span<const float> a, std::span<const float> blocks,
               std::span<double> out) {
  const std::size_t n = a.size();
  EDGEDRIFT_DASSERT(blocks.size() == out.size() * n, "block_mse size mismatch");
  const double count = static_cast<double>(n);
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = static_cast<double>(
                 squared_distance_f32(a.data(), blocks.data() + c * n, n)) /
             count;
  }
}

void narrow(std::span<const double> src, std::span<float> dst) {
  EDGEDRIFT_DASSERT(src.size() == dst.size(), "narrow size mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

double l1_distance(std::span<const double> a, std::span<const double> b) {
  EDGEDRIFT_DASSERT(a.size() == b.size(), "distance size mismatch");
  using simd::VDouble;
  const double* EDGEDRIFT_RESTRICT pa = a.data();
  const double* EDGEDRIFT_RESTRICT pb = b.data();
  const std::size_t n = a.size();
  VDouble acc0 = simd::vzero();
  VDouble acc1 = simd::vzero();
  std::size_t i = 0;
  for (; i + 2 * simd::kLanes <= n; i += 2 * simd::kLanes) {
    acc0 = simd::vadd(
        acc0, simd::vabs(simd::vsub(simd::vload(pa + i), simd::vload(pb + i))));
    acc1 = simd::vadd(
        acc1, simd::vabs(simd::vsub(simd::vload(pa + i + simd::kLanes),
                                    simd::vload(pb + i + simd::kLanes))));
  }
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    acc0 = simd::vadd(
        acc0, simd::vabs(simd::vsub(simd::vload(pa + i), simd::vload(pb + i))));
  }
  double total = simd::vreduce_add(simd::vadd(acc0, acc1));
  for (; i < n; ++i) total += std::abs(pa[i] - pb[i]);
  return total;
}

float l1_distance(std::span<const float> a, std::span<const float> b) {
  EDGEDRIFT_DASSERT(a.size() == b.size(), "distance size mismatch");
  float total = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) total += std::abs(a[i] - b[i]);
  return total;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  EDGEDRIFT_DASSERT(x.size() == y.size(), "axpy size mismatch");
  simd::scaled_accumulate(alpha, x.data(), y.data(), x.size());
}

void copy(std::span<const double> src, std::span<double> dst) {
  EDGEDRIFT_DASSERT(src.size() == dst.size(), "copy size mismatch");
  std::copy(src.begin(), src.end(), dst.begin());
}

void copy(std::span<const float> src, std::span<float> dst) {
  EDGEDRIFT_DASSERT(src.size() == dst.size(), "copy size mismatch");
  std::copy(src.begin(), src.end(), dst.begin());
}

void fill(std::span<double> v, double value) {
  std::fill(v.begin(), v.end(), value);
}

void running_mean_update(std::span<double> mean, std::span<const double> x,
                         std::size_t count) {
  EDGEDRIFT_DASSERT(mean.size() == x.size(), "running mean size mismatch");
  const double n = static_cast<double>(count);
  const double inv = 1.0 / (n + 1.0);
  double* EDGEDRIFT_RESTRICT m = mean.data();
  const double* EDGEDRIFT_RESTRICT xs = x.data();
  for (std::size_t i = 0; i < mean.size(); ++i) {
    m[i] = (m[i] * n + xs[i]) * inv;
  }
}

void ewma_update(std::span<double> mean, std::span<const double> x,
                 double decay) {
  EDGEDRIFT_DASSERT(mean.size() == x.size(), "ewma size mismatch");
  EDGEDRIFT_DASSERT(decay >= 0.0 && decay <= 1.0, "decay must be in [0,1]");
  const double w = 1.0 - decay;
  double* EDGEDRIFT_RESTRICT m = mean.data();
  const double* EDGEDRIFT_RESTRICT xs = x.data();
  for (std::size_t i = 0; i < mean.size(); ++i) {
    m[i] = decay * m[i] + w * xs[i];
  }
}

void running_mean_update(std::span<float> mean, std::span<const float> x,
                         std::size_t count) {
  EDGEDRIFT_DASSERT(mean.size() == x.size(), "running mean size mismatch");
  const float n = static_cast<float>(count);
  const float inv = 1.0f / (n + 1.0f);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    mean[i] = (mean[i] * n + x[i]) * inv;
  }
}

void ewma_update(std::span<float> mean, std::span<const float> x,
                 float decay) {
  EDGEDRIFT_DASSERT(mean.size() == x.size(), "ewma size mismatch");
  const float w = 1.0f - decay;
  for (std::size_t i = 0; i < mean.size(); ++i) {
    mean[i] = decay * mean[i] + w * x[i];
  }
}

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double stddev_population(std::span<const double> v) {
  if (v.empty()) return 0.0;
  const double mu = mean(v);
  double acc = 0.0;
  for (double x : v) {
    const double d = x - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(v.size()));
}

}  // namespace edgedrift::linalg
