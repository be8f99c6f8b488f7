// SIMD abstraction for the dense kernels (gemm.cpp / vector_ops.cpp /
// updates.cpp).
//
// Three backends, chosen at configure time (see the EDGEDRIFT_SIMD and
// EDGEDRIFT_NATIVE CMake options):
//   - AVX2/FMA  when the translation unit is compiled with -mavx2 -mfma
//     (or -march=native on such a host),
//   - NEON      on AArch64 (part of the baseline ABI there),
//   - portable  otherwise: a 4-wide unrolled-scalar struct the compiler can
//     autovectorize, with no ISA assumptions beyond plain doubles.
// Defining EDGEDRIFT_SIMD_FORCE_PORTABLE pins the portable backend even when
// the compiler flags would allow a vector ISA. The int8 tile lanes at the
// end of the file have AVX2 and VNNI forms only; NEON builds run their
// portable lane.
//
// Numerics policy (docs/ARCHITECTURE.md, "Kernel layer & numerics policy"):
// every per-element accumulation in the kernels is one `madd()` — a fused
// multiply-add on the SIMD backends, an unfused multiply-then-add on the
// portable backend. Kernels that must stay bit-identical across the scalar
// and batch paths of one build (matvec_transposed vs. the GEMM microkernel)
// accumulate each output element as a single ascending-k madd chain, so the
// result is independent of lane arrangement and tail handling. Reductions
// (dot, distances) use multiple accumulators and are only tolerance-
// comparable to a naive loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#if !defined(EDGEDRIFT_SIMD_FORCE_PORTABLE)
#if defined(__AVX2__) && defined(__FMA__)
#define EDGEDRIFT_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#define EDGEDRIFT_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

#if defined(__GNUC__) || defined(__clang__)
#define EDGEDRIFT_RESTRICT __restrict__
#define EDGEDRIFT_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define EDGEDRIFT_RESTRICT
#define EDGEDRIFT_ALWAYS_INLINE inline
#endif

namespace edgedrift::linalg::simd {

#if defined(EDGEDRIFT_SIMD_AVX2)
inline constexpr const char* kLevelName = "avx2-fma";
#elif defined(EDGEDRIFT_SIMD_NEON)
inline constexpr const char* kLevelName = "neon";
#else
inline constexpr const char* kLevelName = "portable";
#endif

/// The one per-element accumulation op of the kernel layer: acc + a*b,
/// fused on the SIMD backends so scalar tails round exactly like the vector
/// body (vfmadd/vfma have the same single rounding as std::fma).
EDGEDRIFT_ALWAYS_INLINE double madd(double a, double b, double acc) {
#if defined(EDGEDRIFT_SIMD_AVX2) || defined(EDGEDRIFT_SIMD_NEON)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

#if defined(EDGEDRIFT_SIMD_AVX2)

using VDouble = __m256d;
inline constexpr std::size_t kLanes = 4;

EDGEDRIFT_ALWAYS_INLINE VDouble vzero() { return _mm256_setzero_pd(); }
EDGEDRIFT_ALWAYS_INLINE VDouble vbroadcast(double x) {
  return _mm256_set1_pd(x);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vload(const double* p) {
  return _mm256_loadu_pd(p);
}
EDGEDRIFT_ALWAYS_INLINE void vstore(double* p, VDouble v) {
  _mm256_storeu_pd(p, v);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vadd(VDouble a, VDouble b) {
  return _mm256_add_pd(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vsub(VDouble a, VDouble b) {
  return _mm256_sub_pd(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmul(VDouble a, VDouble b) {
  return _mm256_mul_pd(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmax(VDouble a, VDouble b) {
  return _mm256_max_pd(a, b);
}
/// a*b + acc with one rounding — the vector form of madd().
EDGEDRIFT_ALWAYS_INLINE VDouble vfmadd(VDouble a, VDouble b, VDouble acc) {
  return _mm256_fmadd_pd(a, b, acc);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vabs(VDouble a) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
}
EDGEDRIFT_ALWAYS_INLINE double vreduce_add(VDouble v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d sum1 = _mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2));
  return _mm_cvtsd_f64(sum1);
}

#elif defined(EDGEDRIFT_SIMD_NEON)

using VDouble = float64x2_t;
inline constexpr std::size_t kLanes = 2;

EDGEDRIFT_ALWAYS_INLINE VDouble vzero() { return vdupq_n_f64(0.0); }
EDGEDRIFT_ALWAYS_INLINE VDouble vbroadcast(double x) { return vdupq_n_f64(x); }
EDGEDRIFT_ALWAYS_INLINE VDouble vload(const double* p) { return vld1q_f64(p); }
EDGEDRIFT_ALWAYS_INLINE void vstore(double* p, VDouble v) { vst1q_f64(p, v); }
EDGEDRIFT_ALWAYS_INLINE VDouble vadd(VDouble a, VDouble b) {
  return vaddq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vsub(VDouble a, VDouble b) {
  return vsubq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmul(VDouble a, VDouble b) {
  return vmulq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmax(VDouble a, VDouble b) {
  return vmaxq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vfmadd(VDouble a, VDouble b, VDouble acc) {
  return vfmaq_f64(acc, a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vabs(VDouble a) { return vabsq_f64(a); }
EDGEDRIFT_ALWAYS_INLINE double vreduce_add(VDouble v) {
  return vaddvq_f64(v);
}

#else  // portable: 4-wide unrolled scalar, autovectorizable, no ISA deps.

struct VDouble {
  double lane[4];
};
inline constexpr std::size_t kLanes = 4;

EDGEDRIFT_ALWAYS_INLINE VDouble vzero() { return VDouble{{0.0, 0.0, 0.0, 0.0}}; }
EDGEDRIFT_ALWAYS_INLINE VDouble vbroadcast(double x) {
  return VDouble{{x, x, x, x}};
}
EDGEDRIFT_ALWAYS_INLINE VDouble vload(const double* p) {
  return VDouble{{p[0], p[1], p[2], p[3]}};
}
EDGEDRIFT_ALWAYS_INLINE void vstore(double* p, VDouble v) {
  p[0] = v.lane[0];
  p[1] = v.lane[1];
  p[2] = v.lane[2];
  p[3] = v.lane[3];
}
EDGEDRIFT_ALWAYS_INLINE VDouble vadd(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = a.lane[i] + b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vsub(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = a.lane[i] - b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmul(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = a.lane[i] * b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmax(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
  }
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vfmadd(VDouble a, VDouble b, VDouble acc) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.lane[i] = madd(a.lane[i], b.lane[i], acc.lane[i]);
  }
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vabs(VDouble a) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = std::abs(a.lane[i]);
  return r;
}
EDGEDRIFT_ALWAYS_INLINE double vreduce_add(VDouble v) {
  return (v.lane[0] + v.lane[1]) + (v.lane[2] + v.lane[3]);
}

#endif

// --------------------------------------------------------------------------
// float32 lane set — the kFastF32 tier's kernels (linalg/numerics.hpp).
//
// Same three backends, twice the lanes per vector: AVX2 __m256 (8), NEON
// float32x4_t (4), portable 8-wide unrolled scalar. The f32 tier carries no
// bit-identity obligation (its contract is error-bounded drift-decision
// equivalence), but the kernels still accumulate per element as single
// ascending-k maddf chains so a portable and a native build differ only by
// fusion/reassociation, not by algorithm.
// --------------------------------------------------------------------------

/// float twin of madd(): acc + a*b, fused on the SIMD backends.
EDGEDRIFT_ALWAYS_INLINE float maddf(float a, float b, float acc) {
#if defined(EDGEDRIFT_SIMD_AVX2) || defined(EDGEDRIFT_SIMD_NEON)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

#if defined(EDGEDRIFT_SIMD_AVX2)

using VFloat = __m256;
inline constexpr std::size_t kLanesF32 = 8;

EDGEDRIFT_ALWAYS_INLINE VFloat vzero_f() { return _mm256_setzero_ps(); }
EDGEDRIFT_ALWAYS_INLINE VFloat vbroadcast(float x) { return _mm256_set1_ps(x); }
EDGEDRIFT_ALWAYS_INLINE VFloat vload(const float* p) {
  return _mm256_loadu_ps(p);
}
EDGEDRIFT_ALWAYS_INLINE void vstore(float* p, VFloat v) {
  _mm256_storeu_ps(p, v);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vadd(VFloat a, VFloat b) {
  return _mm256_add_ps(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vsub(VFloat a, VFloat b) {
  return _mm256_sub_ps(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vmul(VFloat a, VFloat b) {
  return _mm256_mul_ps(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vfmadd(VFloat a, VFloat b, VFloat acc) {
  return _mm256_fmadd_ps(a, b, acc);
}
EDGEDRIFT_ALWAYS_INLINE float vreduce_add(VFloat v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x1));
  return _mm_cvtss_f32(sum);
}

#elif defined(EDGEDRIFT_SIMD_NEON)

using VFloat = float32x4_t;
inline constexpr std::size_t kLanesF32 = 4;

EDGEDRIFT_ALWAYS_INLINE VFloat vzero_f() { return vdupq_n_f32(0.0f); }
EDGEDRIFT_ALWAYS_INLINE VFloat vbroadcast(float x) { return vdupq_n_f32(x); }
EDGEDRIFT_ALWAYS_INLINE VFloat vload(const float* p) { return vld1q_f32(p); }
EDGEDRIFT_ALWAYS_INLINE void vstore(float* p, VFloat v) { vst1q_f32(p, v); }
EDGEDRIFT_ALWAYS_INLINE VFloat vadd(VFloat a, VFloat b) {
  return vaddq_f32(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vsub(VFloat a, VFloat b) {
  return vsubq_f32(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vmul(VFloat a, VFloat b) {
  return vmulq_f32(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vfmadd(VFloat a, VFloat b, VFloat acc) {
  return vfmaq_f32(acc, a, b);
}
EDGEDRIFT_ALWAYS_INLINE float vreduce_add(VFloat v) { return vaddvq_f32(v); }

#else  // portable: 8-wide unrolled scalar, autovectorizable.

struct VFloat {
  float lane[8];
};
inline constexpr std::size_t kLanesF32 = 8;

EDGEDRIFT_ALWAYS_INLINE VFloat vzero_f() {
  return VFloat{{0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f}};
}
EDGEDRIFT_ALWAYS_INLINE VFloat vbroadcast(float x) {
  return VFloat{{x, x, x, x, x, x, x, x}};
}
EDGEDRIFT_ALWAYS_INLINE VFloat vload(const float* p) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = p[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE void vstore(float* p, VFloat v) {
  for (std::size_t i = 0; i < 8; ++i) p[i] = v.lane[i];
}
EDGEDRIFT_ALWAYS_INLINE VFloat vadd(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = a.lane[i] + b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VFloat vsub(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = a.lane[i] - b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VFloat vmul(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = a.lane[i] * b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VFloat vfmadd(VFloat a, VFloat b, VFloat acc) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) {
    r.lane[i] = maddf(a.lane[i], b.lane[i], acc.lane[i]);
  }
  return r;
}
EDGEDRIFT_ALWAYS_INLINE float vreduce_add(VFloat v) {
  return ((v.lane[0] + v.lane[1]) + (v.lane[2] + v.lane[3])) +
         ((v.lane[4] + v.lane[5]) + (v.lane[6] + v.lane[7]));
}

#endif

/// float overload of scaled_accumulate(): y[0:n] += s * x[0:n], one maddf
/// per element. The body of the f32 GEMM/matvec row kernels.
EDGEDRIFT_ALWAYS_INLINE void scaled_accumulate(
    float s, const float* EDGEDRIFT_RESTRICT x, float* EDGEDRIFT_RESTRICT y,
    std::size_t n) {
  const VFloat vs = vbroadcast(s);
  std::size_t j = 0;
  for (; j + 2 * kLanesF32 <= n; j += 2 * kLanesF32) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
    vstore(y + j + kLanesF32,
           vfmadd(vs, vload(x + j + kLanesF32), vload(y + j + kLanesF32)));
  }
  for (; j + kLanesF32 <= n; j += kLanesF32) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
  }
  for (; j < n; ++j) y[j] = maddf(s, x[j], y[j]);
}

/// y[0:n] = s * x[0:n] — the k=0 seed of an f32 GEMM row, saving the
/// pre-zeroing pass scaled_accumulate would need.
EDGEDRIFT_ALWAYS_INLINE void scaled_copy(float s,
                                         const float* EDGEDRIFT_RESTRICT x,
                                         float* EDGEDRIFT_RESTRICT y,
                                         std::size_t n) {
  const VFloat vs = vbroadcast(s);
  std::size_t j = 0;
  for (; j + kLanesF32 <= n; j += kLanesF32) {
    vstore(y + j, vmul(vs, vload(x + j)));
  }
  for (; j < n; ++j) y[j] = s * x[j];
}

/// float overload of the multi-accumulator dot product.
EDGEDRIFT_ALWAYS_INLINE float dot_product(const float* EDGEDRIFT_RESTRICT a,
                                          const float* EDGEDRIFT_RESTRICT b,
                                          std::size_t n) {
  VFloat acc0 = vzero_f();
  VFloat acc1 = vzero_f();
  std::size_t i = 0;
  for (; i + 2 * kLanesF32 <= n; i += 2 * kLanesF32) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
    acc1 = vfmadd(vload(a + i + kLanesF32), vload(b + i + kLanesF32), acc1);
  }
  for (; i + kLanesF32 <= n; i += kLanesF32) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
  }
  float acc = vreduce_add(vadd(acc0, acc1));
  for (; i < n; ++i) acc = maddf(a[i], b[i], acc);
  return acc;
}

/// y[0:n] += s * x[0:n], one madd-chain link per element. The shared body of
/// matvec_transposed / ger / axpy and the GEMM reference semantics: per
/// element this is exactly `y[j] = madd(s, x[j], y[j])`, so any kernel built
/// from repeated scaled_accumulate calls (ascending k) rounds identically to
/// the register-tiled microkernel.
EDGEDRIFT_ALWAYS_INLINE void scaled_accumulate(
    double s, const double* EDGEDRIFT_RESTRICT x, double* EDGEDRIFT_RESTRICT y,
    std::size_t n) {
  const VDouble vs = vbroadcast(s);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
    vstore(y + j + kLanes,
           vfmadd(vs, vload(x + j + kLanes), vload(y + j + kLanes)));
  }
  for (; j + kLanes <= n; j += kLanes) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
  }
  for (; j < n; ++j) y[j] = madd(s, x[j], y[j]);
}

/// Multi-accumulator dot product. NOT order-compatible with a naive scalar
/// loop — callers relying on dot() live outside the bit-identity contract.
EDGEDRIFT_ALWAYS_INLINE double dot_product(const double* EDGEDRIFT_RESTRICT a,
                                           const double* EDGEDRIFT_RESTRICT b,
                                           std::size_t n) {
  VDouble acc0 = vzero();
  VDouble acc1 = vzero();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
    acc1 = vfmadd(vload(a + i + kLanes), vload(b + i + kLanes), acc1);
  }
  for (; i + kLanes <= n; i += kLanes) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
  }
  double acc = vreduce_add(vadd(acc0, acc1));
  for (; i < n; ++i) acc = madd(a[i], b[i], acc);
  return acc;
}

// --------------------------------------------------------------------------
// int8 dot-product tile lanes — the kQuantI8 tier's matvec inner loop
// (linalg/quant.cpp).
//
// Tiles (QuantizedMatrix in linalg/quant.hpp): a k x n code matrix is cut
// into column groups of kI8TileCols = 8 outputs and row quads of
// kI8TileRows = 4 rows. Each (group, quad) pair is one kI8TileBytes = 32-byte
// tile whose bytes 4j..4j+3 hold column j's codes of rows 4q..4q+3,
// zero-padded past row k and column n, and a group's tiles are contiguous
// in quad order. A tile's 32-bit lane j is thus one column's quad, the
// operand of a 4-way byte dot product; a group's eight int32 sums stay in
// one register across every quad, and each output is written once.
//
// Contract: y[j] = float(sum_i x[i] * code(i, j)) * x_scale * scales[j] for
// j < n, the sum computed EXACTLY in int32 and the dequant multiplied in
// that order. Integer addition is associative, so every lane writes the
// bit-identical float of the scalar loop — the i8 tier stays bit-identical
// across the portable and native backends by construction. Preconditions:
// k <= 2^16, x and every code in [-127, 127] (-128 never appears, so |x|
// and -code are exact bytes), `tiles` holds col_groups x row_quads tiles
// and `scales` col_groups * 8 floats.
//
// Three lanes, each callable directly (tests/test_simd_kernels.cpp runs all
// that the build compiles): the portable loop in every build, the AVX2
// maddubs lane in AVX2 builds, and the VNNI lane behind i8_vnni_available().
// quant.cpp dispatches to the best of them. The portable and AVX2 lanes sum
// the products c_i * x_i themselves: every partial sum is at most
// k * 127^2 < 2^31. The VNNI lane sums flipped tiles against a seed
// (i8_tile_step_vnni): after quad m its lane holds
// sum_{i<=m} c_i x_i - 128 * sum_{i>m} x_i, at most k * 128 * 127 < 2^31 in
// magnitude, and after the last quad exactly the sum of the products.
// --------------------------------------------------------------------------

inline constexpr std::size_t kI8TileCols = 8;
inline constexpr std::size_t kI8TileRows = 4;
inline constexpr std::size_t kI8TileBytes = kI8TileCols * kI8TileRows;

/// Portable lane: plain loops, exact by definition.
inline void i8_tiles_dequant_portable(
    const std::int8_t* EDGEDRIFT_RESTRICT tiles,
    const std::int8_t* EDGEDRIFT_RESTRICT x, std::size_t k, std::size_t n,
    float x_scale, const float* EDGEDRIFT_RESTRICT scales,
    float* EDGEDRIFT_RESTRICT y) {
  const std::size_t quads = (k + kI8TileRows - 1) / kI8TileRows;
  for (std::size_t col = 0; col < n; col += kI8TileCols) {
    std::int32_t acc[kI8TileCols] = {};
    for (std::size_t q = 0; q < quads; ++q, tiles += kI8TileBytes) {
      // The quad's codes, zero past k like the tile rows they meet.
      std::int32_t xq[kI8TileRows] = {};
      const std::size_t rows = std::min(kI8TileRows, k - q * kI8TileRows);
      for (std::size_t i = 0; i < rows; ++i) xq[i] = x[q * kI8TileRows + i];
      for (std::size_t j = 0; j < kI8TileCols; ++j) {
        const std::int8_t* lane = tiles + j * kI8TileRows;
        acc[j] += xq[0] * lane[0] + xq[1] * lane[1] + xq[2] * lane[2] +
                  xq[3] * lane[3];
      }
    }
    const std::size_t width = std::min(kI8TileCols, n - col);
    for (std::size_t j = 0; j < width; ++j) {
      y[col + j] = static_cast<float>(acc[j]) * x_scale * scales[col + j];
    }
  }
}

#if defined(EDGEDRIFT_SIMD_AVX2)

namespace detail {

/// Codes x[0..3] as one 32-bit word: byte i holds row i of the quad, the
/// byte a tile's lane j holds for column j.
EDGEDRIFT_ALWAYS_INLINE std::int32_t i8_quad_word(const std::int8_t* x) {
  std::int32_t word;
  std::memcpy(&word, x, sizeof(word));
  return word;
}

/// The last quad's word when k is not a multiple of 4 (its rows past k
/// zero), else 0.
EDGEDRIFT_ALWAYS_INLINE std::int32_t i8_tail_word(const std::int8_t* x,
                                                  std::size_t k) {
  std::int8_t bytes[kI8TileRows] = {};
  const std::size_t full = k - k % kI8TileRows;
  std::memcpy(bytes, x + full, k - full);
  return i8_quad_word(bytes);
}

/// One AVX2 tile step: |x|'s quad is the unsigned maddubs operand and x's
/// signs are pushed onto the tile bytes (sign_epi8), so maddubs forms each
/// column's pair sums x0*c0 + x1*c1 and x2*c2 + x3*c3 in int16 — at most
/// 2 * 127^2 = 32258, no saturation — and madd_epi16 against ones adds the
/// two into the column's int32 lane.
EDGEDRIFT_ALWAYS_INLINE __m256i i8_tile_step_avx2(__m256i acc, __m256i xq,
                                                  const std::int8_t* tile) {
  const __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tile));
  const __m256i pairs =
      _mm256_maddubs_epi16(_mm256_abs_epi8(xq), _mm256_sign_epi8(t, xq));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
}

/// Writes the group starting at column `col`: float(acc) * x_scale *
/// scales, all eight outputs when the group is full, the n - col that
/// exist when it is the last, partial one.
EDGEDRIFT_ALWAYS_INLINE void i8_store_group(__m256i acc, __m256 vxs,
                                            const float* scales, float* y,
                                            std::size_t col, std::size_t n) {
  const __m256 out = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_cvtepi32_ps(acc), vxs), _mm256_loadu_ps(scales));
  if (col + kI8TileCols <= n) {
    _mm256_storeu_ps(y + col, out);
    return;
  }
  alignas(32) float tail[kI8TileCols];
  _mm256_store_ps(tail, out);
  std::memcpy(y + col, tail, (n - col) * sizeof(float));
}

}  // namespace detail

/// AVX2 lane: one maddubs + madd_epi16 step per tile
/// (detail::i8_tile_step_avx2).
inline void i8_tiles_dequant_avx2(const std::int8_t* EDGEDRIFT_RESTRICT tiles,
                                  const std::int8_t* EDGEDRIFT_RESTRICT x,
                                  std::size_t k, std::size_t n, float x_scale,
                                  const float* EDGEDRIFT_RESTRICT scales,
                                  float* EDGEDRIFT_RESTRICT y) {
  const std::size_t full = k / kI8TileRows;
  const bool tail = k % kI8TileRows != 0;
  const __m256i x_tail = _mm256_set1_epi32(detail::i8_tail_word(x, k));
  const __m256 vxs = _mm256_set1_ps(x_scale);
  for (std::size_t col = 0; col < n; col += kI8TileCols) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t q = 0; q < full; ++q, tiles += kI8TileBytes) {
      const __m256i xq =
          _mm256_set1_epi32(detail::i8_quad_word(x + q * kI8TileRows));
      acc = detail::i8_tile_step_avx2(acc, xq, tiles);
    }
    if (tail) {
      acc = detail::i8_tile_step_avx2(acc, x_tail, tiles);
      tiles += kI8TileBytes;
    }
    detail::i8_store_group(acc, vxs, scales + col, y, col, n);
  }
}

#if defined(__GNUC__) || defined(__clang__)
// VNNI lane: vpdpbusd fuses the byte multiply, the 4-way lane sum and the
// int32 accumulate in one instruction, with no int16 stage to saturate.
// Compiled behind a function-level target attribute so the binary still
// runs on plain-AVX2 hosts; callers must gate on i8_vnni_available().
#define EDGEDRIFT_HAVE_I8_VNNI 1

/// Runtime gate for the VNNI lane, resolved once per process.
inline bool i8_vnni_available() {
  static const bool available = __builtin_cpu_supports("avx512vnni") &&
                                __builtin_cpu_supports("avx512vl");
  return available;
}

/// One VNNI step on a flipped tile. vpdpbusd multiplies unsigned bytes by
/// signed ones, so the tile's codes become the unsigned operand as they
/// load, c ^ 0x80 = c + 128 in [1, 255] (padding 128), and x's quad is the
/// signed operand as it stands: each lane gains
/// sum_i c_i x_i + 128 * sum_i x_i. The group's seed, -128 * sum(x), takes
/// the second term back out once every quad is in; no abs or sign per tile.
__attribute__((target("avx512vnni,avx512vl"))) EDGEDRIFT_ALWAYS_INLINE __m256i
i8_tile_step_vnni(__m256i acc, __m256i xq, const std::int8_t* tile) {
  const __m256i t = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tile)),
      _mm256_set1_epi8(-128));
  return _mm256_dpbusd_epi32(acc, t, xq);
}

/// Sums kGroups consecutive column groups, the first at `tiles`, into
/// acc[0..kGroups): each accumulator starts at the seed, and each quad's
/// broadcast feeds one vpdpbusd per group, so the groups' dependency chains
/// run side by side.
template <std::size_t kGroups>
__attribute__((target("avx512vnni,avx512vl"))) EDGEDRIFT_ALWAYS_INLINE void
i8_groups_vnni(const std::int8_t* tiles, std::size_t group_bytes,
               const std::int8_t* x, std::size_t full, bool tail,
               __m256i x_tail, __m256i seed, __m256i (&acc)[kGroups]) {
  for (std::size_t g = 0; g < kGroups; ++g) acc[g] = seed;
  for (std::size_t q = 0; q < full; ++q, tiles += kI8TileBytes) {
    const __m256i xq =
        _mm256_set1_epi32(detail::i8_quad_word(x + q * kI8TileRows));
    for (std::size_t g = 0; g < kGroups; ++g) {
      acc[g] = i8_tile_step_vnni(acc[g], xq, tiles + g * group_bytes);
    }
  }
  if (tail) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      acc[g] = i8_tile_step_vnni(acc[g], x_tail, tiles + g * group_bytes);
    }
  }
}

/// VNNI lane: i8_tile_step_vnni over flipped tiles, four column groups at a
/// time, each group's accumulator seeded with -128 * sum(x) (at most
/// 2^16 * 128 * 127 < 2^31 in magnitude).
__attribute__((target("avx512vnni,avx512vl"))) inline void
i8_tiles_dequant_vnni(const std::int8_t* EDGEDRIFT_RESTRICT tiles,
                      const std::int8_t* EDGEDRIFT_RESTRICT x, std::size_t k,
                      std::size_t n, float x_scale,
                      const float* EDGEDRIFT_RESTRICT scales,
                      float* EDGEDRIFT_RESTRICT y) {
  constexpr std::size_t kInFlight = 4;
  const std::size_t full = k / kI8TileRows;
  const bool tail = k % kI8TileRows != 0;
  const std::size_t group_bytes = (full + (tail ? 1 : 0)) * kI8TileBytes;
  const std::size_t groups = (n + kI8TileCols - 1) / kI8TileCols;
  const __m256i x_tail = _mm256_set1_epi32(detail::i8_tail_word(x, k));
  std::int32_t x_sum = 0;
  for (std::size_t i = 0; i < k; ++i) x_sum += x[i];
  const __m256i seed = _mm256_set1_epi32(-128 * x_sum);
  const __m256 vxs = _mm256_set1_ps(x_scale);
  std::size_t g = 0;
  for (; g + kInFlight <= groups; g += kInFlight) {
    __m256i acc[kInFlight];
    i8_groups_vnni(tiles + g * group_bytes, group_bytes, x, full, tail,
                   x_tail, seed, acc);
    for (std::size_t i = 0; i < kInFlight; ++i) {
      const std::size_t col = (g + i) * kI8TileCols;
      detail::i8_store_group(acc[i], vxs, scales + col, y, col, n);
    }
  }
  for (; g < groups; ++g) {
    __m256i acc[1];
    i8_groups_vnni(tiles + g * group_bytes, group_bytes, x, full, tail,
                   x_tail, seed, acc);
    const std::size_t col = g * kI8TileCols;
    detail::i8_store_group(acc[0], vxs, scales + col, y, col, n);
  }
}
#endif  // __GNUC__ || __clang__

#endif  // EDGEDRIFT_SIMD_AVX2

// --------------------------------------------------------------------------
// int8 activation quantizer lanes — quantize_vector's body
// (linalg/quant.cpp).
//
// Symmetric per-vector quantization of an f64 row x[0..n): max|x| is the
// row's largest magnitude, scale = float(max|x|) / 127 and inv = 1 / scale
// in float, and code i is round(x[i] * double(inv)), half away from zero,
// clamped to [-127, 127]. An all-zero row returns scale 0 and zero codes.
// The max is order-free and the rest is per element, so the lanes differ
// only in cost: on every row of finite values both return the same scale
// and the same codes. Two lanes, each callable directly: the portable
// scalar loop in every build and the AVX2 lane in AVX2 builds; quant.cpp
// dispatches to the AVX2 lane where it is compiled.
// --------------------------------------------------------------------------

inline constexpr float kI8CodeMax = 127.0f;

/// One code: round(v * inv_scale) half away from zero, clamped to the
/// symmetric code domain. lround (not nearbyint), so the grid does not
/// depend on the ambient FP rounding mode.
EDGEDRIFT_ALWAYS_INLINE std::int8_t i8_encode(double v, float inv_scale) {
  const long code = std::lround(v * static_cast<double>(inv_scale));
  return static_cast<std::int8_t>(std::clamp(code, -127L, 127L));
}

/// Portable lane: the scalar loop. Returns the scale and writes q[0..n).
inline float i8_quantize_portable(const double* EDGEDRIFT_RESTRICT x,
                                  std::int8_t* EDGEDRIFT_RESTRICT q,
                                  std::size_t n) {
  double maxabs = 0.0;
  for (std::size_t i = 0; i < n; ++i) maxabs = std::max(maxabs, std::abs(x[i]));
  if (maxabs == 0.0) {
    std::fill(q, q + n, std::int8_t{0});
    return 0.0f;
  }
  const float scale = static_cast<float>(maxabs) / kI8CodeMax;
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < n; ++i) q[i] = i8_encode(x[i], inv);
  return scale;
}

#if defined(EDGEDRIFT_SIMD_AVX2)

namespace detail {

/// x[0..len) in the low lanes of a vector and 0.0 above (len <= 4),
/// reading no element past x[len - 1].
EDGEDRIFT_ALWAYS_INLINE __m256d load_partial_pd(const double* x,
                                                std::size_t len) {
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(len)), lanes);
  return _mm256_maskload_pd(x, mask);
}

/// Four codes as int32, i8_encode's rule without lround: t = x * inv is
/// truncated and stepped one away from zero where the fraction t - trunc(t)
/// reaches +-0.5. The fraction is exact (for |t| < 2^52 the subtraction
/// drops no bit; above it t is an integer and the fraction 0), so this is
/// round half away from zero, std::lround's rule. Then the clamp to
/// [-127, 127], after which the conversion is exact.
EDGEDRIFT_ALWAYS_INLINE __m128i i8_encode4(__m256d x, __m256d inv) {
  const __m256d t = _mm256_mul_pd(x, inv);
  const __m256d whole =
      _mm256_round_pd(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(t, whole);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d up = _mm256_and_pd(
      _mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ), one);
  const __m256d down = _mm256_and_pd(
      _mm256_cmp_pd(frac, _mm256_set1_pd(-0.5), _CMP_LE_OQ), one);
  const __m256d code = _mm256_sub_pd(_mm256_add_pd(whole, up), down);
  return _mm256_cvttpd_epi32(
      _mm256_min_pd(_mm256_max_pd(code, _mm256_set1_pd(-127.0)),
                    _mm256_set1_pd(127.0)));
}

}  // namespace detail

/// AVX2 lane: vector max|x| (the tail masked in as zeros), then
/// detail::i8_encode4 on four elements at a time, packed to bytes with
/// saturating packs that the clamp leaves exact. A max|x| whose inv is not a
/// finite positive float (an all-zero row, a subnormal or an overflowing
/// max) would make t infinite: such a row takes the portable lane.
inline float i8_quantize_avx2(const double* EDGEDRIFT_RESTRICT x,
                              std::int8_t* EDGEDRIFT_RESTRICT q,
                              std::size_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vmax = _mm256_max_pd(_mm256_andnot_pd(sign, _mm256_loadu_pd(x + i)), vmax);
  }
  if (i < n) {
    vmax = _mm256_max_pd(
        _mm256_andnot_pd(sign, detail::load_partial_pd(x + i, n - i)), vmax);
  }
  __m128d m = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                         _mm256_extractf128_pd(vmax, 1));
  m = _mm_max_sd(m, _mm_unpackhi_pd(m, m));
  const float scale = static_cast<float>(_mm_cvtsd_f64(m)) / kI8CodeMax;
  const float inv = 1.0f / scale;
  if (!(inv > 0.0f && inv <= std::numeric_limits<float>::max())) {
    return i8_quantize_portable(x, q, n);
  }
  const __m256d vinv = _mm256_set1_pd(static_cast<double>(inv));
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i lo = detail::i8_encode4(_mm256_loadu_pd(x + i), vinv);
    const __m128i hi = detail::i8_encode4(_mm256_loadu_pd(x + i + 4), vinv);
    const __m128i words = _mm_packs_epi32(lo, hi);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(words, words));
  }
  for (; i < n; i += 4) {
    const std::size_t len = std::min<std::size_t>(4, n - i);
    const __m128i codes =
        detail::i8_encode4(detail::load_partial_pd(x + i, len), vinv);
    const __m128i words = _mm_packs_epi32(codes, codes);
    const std::int32_t bytes = _mm_cvtsi128_si32(_mm_packs_epi16(words, words));
    std::memcpy(q + i, &bytes, len);
  }
  return scale;
}

#endif  // EDGEDRIFT_SIMD_AVX2

}  // namespace edgedrift::linalg::simd
