// The vectorized kernel layer (linalg/simd.hpp + gemm.cpp + vector_ops.cpp)
// against the preserved pre-SIMD scalar kernels (linalg/naive.hpp).
//
// Numerics policy under test (docs/ARCHITECTURE.md, "Kernel layer &
// numerics policy"): optimized and naive kernels agree to 1e-12 RELATIVE
// tolerance, never assumed bit-exact — the SIMD backends fuse multiply-adds
// and reduce with multiple accumulators. What IS bit-exact, within one
// build, is the scalar-vs-batch pair the pipeline relies on: a GEMM output
// row against matvec_transposed on the same data (both are one ascending-k
// madd chain per element), which is the contract behind
// Pipeline::process_rows() == process().
//
// Shapes deliberately stress the tails: 1x1, prime dims (7x13x31) that
// never fill a register tile, single row/column, and zero-sized edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/quant.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/naive.hpp"

namespace {

using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;
namespace linalg = edgedrift::linalg;

constexpr double kRelTol = 1e-12;

void expect_close(double got, double want, const char* what) {
  const double scale = std::max({1.0, std::abs(got), std::abs(want)});
  EXPECT_LE(std::abs(got - want), kRelTol * scale) << what << ": got " << got
                                                   << " want " << want;
}

void expect_matrix_close(const Matrix& got, const Matrix& want,
                         const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      expect_close(got(i, j), want(i, j), what);
    }
  }
}

// m x k x n shapes covering register-tile interiors and every tail case.
struct Shape {
  std::size_t m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},     // Degenerate: all tails.
    {7, 13, 31},   // Primes: partial row tile and partial column panel.
    {1, 40, 17},   // Single output row.
    {23, 5, 1},    // Single output column: no full panel at any width.
    {4, 8, 8},     // Exactly one AVX2 register tile.
    {12, 16, 24},  // Multiple full tiles, no tails.
    {0, 5, 7},     // Zero rows.
    {5, 0, 7},     // Empty inner dimension: C must be all zeros.
    {64, 33, 129}, // Large with both tails.
};

TEST(SimdKernels, MatmulMatchesNaive) {
  Rng rng(42);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::random_gaussian(s.m, s.k, rng);
    const Matrix b = Matrix::random_gaussian(s.k, s.n, rng);
    expect_matrix_close(linalg::matmul(a, b), linalg::naive::matmul(a, b),
                        "matmul");
  }
}

TEST(SimdKernels, MatmulAtBMatchesNaive) {
  Rng rng(43);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::random_gaussian(s.k, s.m, rng);
    const Matrix b = Matrix::random_gaussian(s.k, s.n, rng);
    expect_matrix_close(linalg::matmul_at_b(a, b),
                        linalg::naive::matmul_at_b(a, b), "matmul_at_b");
  }
}

TEST(SimdKernels, MatmulABtMatchesNaive) {
  Rng rng(44);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::random_gaussian(s.m, s.k, rng);
    const Matrix b = Matrix::random_gaussian(s.n, s.k, rng);
    expect_matrix_close(linalg::matmul_a_bt(a, b),
                        linalg::naive::matmul_a_bt(a, b), "matmul_a_bt");
  }
}

TEST(SimdKernels, MatvecMatchesNaive) {
  Rng rng(45);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::random_gaussian(s.m, s.n, rng);
    std::vector<double> x(s.n), got(s.m), want(s.m);
    for (auto& v : x) v = rng.gaussian();
    linalg::matvec(a, x, got);
    linalg::naive::matvec(a, x, want);
    for (std::size_t i = 0; i < s.m; ++i) {
      expect_close(got[i], want[i], "matvec");
    }
  }
}

TEST(SimdKernels, MatvecTransposedMatchesNaive) {
  Rng rng(46);
  for (const Shape& s : kShapes) {
    const Matrix a = Matrix::random_gaussian(s.m, s.n, rng);
    std::vector<double> x(s.m), got(s.n), want(s.n);
    for (auto& v : x) v = rng.gaussian();
    linalg::matvec_transposed(a, x, got);
    linalg::naive::matvec_transposed(a, x, want);
    for (std::size_t j = 0; j < s.n; ++j) {
      expect_close(got[j], want[j], "matvec_transposed");
    }
  }
}

TEST(SimdKernels, GerMatchesNaive) {
  Rng rng(47);
  for (const Shape& s : kShapes) {
    Matrix got = Matrix::random_gaussian(s.m, s.n, rng);
    Matrix want = got;
    std::vector<double> u(s.m), v(s.n);
    for (auto& e : u) e = rng.gaussian();
    for (auto& e : v) e = rng.gaussian();
    linalg::ger_block(got, 0, 0.75, u, v);
    linalg::naive::ger(want, 0.75, u, v);
    expect_matrix_close(got, want, "ger");
  }
}

// The block kernels OS-ELM trains a packed-beta block with: a column block
// of a wider matrix gets exactly the bits a dense matrix of the block's
// shape gets from matvec_transposed() and a full-width ger_block().
TEST(SimdKernels, ColumnBlockKernelsMatchDenseBitForBit) {
  Rng rng(53);
  for (const Shape& s : kShapes) {
    const std::size_t lead = 3;
    Matrix wide = Matrix::random_gaussian(s.m, lead + s.n + 5, rng);
    Matrix dense(s.m, s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) dense(i, j) = wide(i, lead + j);
    }
    std::vector<double> u(s.m), v(s.n);
    for (auto& e : u) e = rng.gaussian();
    for (auto& e : v) e = rng.gaussian();

    std::vector<double> from_block(s.n), from_dense(s.n);
    linalg::matvec_transposed_block(wide, lead, u, from_block);
    linalg::matvec_transposed(dense, u, from_dense);
    EXPECT_EQ(from_block, from_dense) << s.m << "x" << s.n;

    linalg::ger_block(wide, lead, 0.75, u, v);
    linalg::ger_block(dense, 0, 0.75, u, v);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        mismatches += wide(i, lead + j) != dense(i, j);
      }
    }
    EXPECT_EQ(mismatches, 0u) << s.m << "x" << s.n;
  }
}

TEST(SimdKernels, DotMatchesNaiveAtTolerance) {
  // The multi-accumulator reduction is the policy's canonical "tolerance,
  // not identity" case: a different summation order than the naive
  // ascending loop, required to agree only to 1e-12 relative.
  Rng rng(48);
  for (const std::size_t n : {0UL, 1UL, 3UL, 7UL, 64UL, 129UL, 1000UL}) {
    std::vector<double> a(n), b(n);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    expect_close(linalg::dot(a, b), linalg::naive::dot(a, b), "dot");
  }
}

TEST(SimdKernels, ZeroHeavyInputsMatch) {
  // The old scalar kernels skipped zero multipliers via a branch; the
  // vectorized layer must produce the same values branch-free.
  Rng rng(49);
  Matrix a = Matrix::random_gaussian(9, 14, rng);
  std::vector<double> x(9, 0.0);
  x[2] = 1.5;
  x[7] = -0.25;  // Mostly zeros: the branch would have skipped 7 of 9 rows.
  std::vector<double> got(14), want(14);
  linalg::matvec_transposed(a, x, got);
  linalg::naive::matvec_transposed(a, x, want);
  for (std::size_t j = 0; j < 14; ++j) {
    expect_close(got[j], want[j], "zero-heavy matvec_transposed");
  }
}

TEST(SimdKernels, GemmRowBitIdenticalToMatvecTransposed) {
  // The bit-identity contract itself: row r of A*B must equal B^T * A.row(r)
  // EXACTLY (EXPECT_EQ, no tolerance) within a build, because both sides are
  // a single ascending-k madd chain per output element. This is the kernel-
  // level fact behind Pipeline::process_rows() == process().
  Rng rng(50);
  for (const Shape& s : kShapes) {
    if (s.m == 0) continue;
    const Matrix a = Matrix::random_gaussian(s.m, s.k, rng);
    const Matrix b = Matrix::random_gaussian(s.k, s.n, rng);
    const Matrix c = linalg::matmul(a, b);
    std::vector<double> y(s.n);
    for (std::size_t r = 0; r < s.m; ++r) {
      linalg::matvec_transposed(b, a.row(r), y);
      for (std::size_t j = 0; j < s.n; ++j) {
        EXPECT_EQ(c(r, j), y[j]) << "row " << r << " col " << j << " shape "
                                 << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

TEST(SimdKernels, SquaredL2MatchesScalarAtTolerance) {
  Rng rng(51);
  for (const std::size_t n : {1UL, 5UL, 38UL, 128UL, 511UL}) {
    std::vector<double> a(n), b(n);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[i];
      want += d * d;
    }
    expect_close(linalg::squared_l2_distance(a, b), want,
                 "squared_l2_distance");
    double l1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) l1 += std::abs(a[i] - b[i]);
    expect_close(linalg::l1_distance(a, b), l1, "l1_distance");
  }
}

// --- int8 tile lanes -----------------------------------------------------
//
// The i8 tile lanes are exact in int32 (2^16 terms x 127^2 < 2^31) and
// dequantize in one fixed order, so every lane — portable loop, AVX2
// maddubs, AVX-VNNI vpdpbusd — must write the bit-identical float of the
// naive ascending loop. EXPECT_EQ throughout, no tolerance.

std::vector<std::int8_t> random_codes(Rng& rng, std::size_t n) {
  std::vector<std::int8_t> codes(n);
  for (auto& c : codes) {
    // Full symmetric code domain including the +/-127 extremes.
    c = static_cast<std::int8_t>(
        std::lround(std::clamp(rng.gaussian() * 64.0, -127.0, 127.0)));
  }
  return codes;
}

/// Scalar reference: float(sum_i x[i] * code(i, j)) * x_scale * scales[j].
std::vector<float> i8_reference(const linalg::QuantizedMatrix& a,
                                const std::vector<std::int8_t>& x,
                                float x_scale) {
  std::vector<float> y(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    std::int32_t sum = 0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      sum += static_cast<std::int32_t>(x[i]) *
             static_cast<std::int32_t>(a.code(i, j));
    }
    y[j] = static_cast<float>(sum) * x_scale * a.scales[j];
  }
  return y;
}

TEST(SimdKernels, I8TileLanesMatchScalarExactly) {
  // Every lane the build compiles, called directly on the same tiles: a
  // direct call is the only way the AVX2 lane runs on a VNNI host, where
  // the dispatcher never picks it. K and N cover a partial row quad, a
  // partial column group, exactly one of each, and the label-rich C = 23
  // replica (22 x 874).
  namespace simd = linalg::simd;
  using Lane = void (*)(const std::int8_t*, const std::int8_t*, std::size_t,
                        std::size_t, float, const float*, float*);
  struct NamedLane {
    const char* name;
    Lane lane;
  };
  std::vector<NamedLane> lanes{{"portable", simd::i8_tiles_dequant_portable}};
#if defined(EDGEDRIFT_SIMD_AVX2)
  lanes.push_back({"avx2", simd::i8_tiles_dequant_avx2});
#endif
  bool vnni_skipped = false;
#if defined(EDGEDRIFT_HAVE_I8_VNNI)
  if (simd::i8_vnni_available()) {
    lanes.push_back({"vnni", simd::i8_tiles_dequant_vnni});
  } else {
    vnni_skipped = true;
  }
#endif
  Rng rng(53);
  const float x_scale = 0.0125f;
  for (const std::size_t k : {1UL, 3UL, 4UL, 5UL, 22UL, 64UL}) {
    for (const std::size_t n : {1UL, 7UL, 8UL, 9UL, 76UL, 874UL}) {
      linalg::QuantizedMatrix a;
      linalg::quantize(Matrix::random_gaussian(k, n, rng), a);
      // Activation extremes, a zero (it must contribute nothing, not a
      // stray sign) and negatives; the rest random.
      auto x = random_codes(rng, k);
      const std::int8_t pinned[] = {127, -127, 0, -5};
      for (std::size_t i = 0; i < k && i < 4; ++i) x[i] = pinned[i];
      const std::vector<float> want = i8_reference(a, x, x_scale);
      for (const NamedLane& l : lanes) {
        // Guard floats past n catch a lane that writes the last group's
        // padding.
        std::vector<float> got(n + simd::kI8TileCols, -1.0f);
        l.lane(a.tiles.data(), x.data(), k, n, x_scale, a.scales.data(),
               got.data());
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(got[j], want[j])
              << l.name << " k=" << k << " n=" << n << " j=" << j;
        }
        for (std::size_t j = n; j < got.size(); ++j) {
          EXPECT_EQ(got[j], -1.0f) << l.name << " wrote past n=" << n;
        }
      }
    }
  }
  // Skipped, not passed, where the VNNI lane could not run; a mismatch in
  // the lanes above still fails the test.
  if (vnni_skipped) GTEST_SKIP() << "host CPU lacks avx512vnni+avx512vl";
}

TEST(SimdKernels, I8MatvecTransposedDequantMatchesReference) {
  // End-to-end over the dispatcher (the best tile lane the build and the
  // CPU offer): the int32 accumulator is exact, and the dequant multiply
  // happens in the same order on both sides, so the floats match EXACTLY.
  Rng rng(55);
  for (const Shape& s : kShapes) {
    if (s.m == 0 || s.n == 0) continue;
    const Matrix a = Matrix::random_gaussian(s.m, s.n, rng);
    linalg::QuantizedMatrix qa;
    linalg::quantize(a, qa);
    auto q_x = random_codes(rng, s.m);
    // Sprinkle zeros so some row quads carry zero codes.
    for (std::size_t i = 0; i < s.m; i += 3) q_x[i] = 0;
    const float x_scale = 0.0125f;
    std::vector<float> got(s.n), want(s.n);
    linalg::i8_matvec_transposed_dequant(qa, q_x, x_scale, got);
    for (std::size_t j = 0; j < s.n; ++j) {
      std::int32_t sum = 0;
      for (std::size_t i = 0; i < s.m; ++i) {
        sum += static_cast<std::int32_t>(q_x[i]) *
               static_cast<std::int32_t>(qa.code(i, j));
      }
      want[j] = static_cast<float>(sum) * x_scale * qa.scales[j];
      EXPECT_EQ(got[j], want[j])
          << "i8 matvec_t " << s.m << "x" << s.n << " j=" << j;
    }
  }
}

TEST(SimdKernels, ScaledAccumulateIsPerElementMadd) {
  // scaled_accumulate's contract: y[j] = madd(s, x[j], y[j]) exactly, for
  // every j regardless of vector width or tail position.
  namespace simd = linalg::simd;
  Rng rng(52);
  for (const std::size_t n : {1UL, 4UL, 7UL, 8UL, 9UL, 40UL, 129UL}) {
    std::vector<double> x(n), y(n), want(n);
    for (auto& v : x) v = rng.gaussian();
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = rng.gaussian();
      want[i] = simd::madd(0.6180339887, x[i], y[i]);
    }
    simd::scaled_accumulate(0.6180339887, x.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], want[i]) << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
