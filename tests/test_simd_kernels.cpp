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
#include <limits>
#include <utility>
#include <vector>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/quant.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/digest.hpp"
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
  // The documented bound, k = 2^16, with every code and activation at
  // +-127. Activations all of one sign drive the VNNI lane's seed,
  // -128 * sum(x), to k * 128 * 127 in magnitude, its largest partial sum,
  // and codes of the matching sign drive the final sum to k * 127^2.
  const std::size_t k_max = std::size_t{1} << 16;
  const std::size_t n_max = 9;
  linalg::QuantizedMatrix a;
  a.reshape(k_max, n_max);
  std::fill(a.scales.begin(), a.scales.begin() + n_max, 0.5f);
  for (const std::int8_t xv : {std::int8_t{127}, std::int8_t{-127}}) {
    for (const std::int8_t cv : {std::int8_t{127}, std::int8_t{-127}}) {
      for (std::size_t i = 0; i < k_max; ++i) {
        for (std::size_t j = 0; j < n_max; ++j) {
          // Column 0 alternates the code sign, so its partial sums swing
          // while the seed stays at the bound.
          const bool flip = j == 0 && i % 2 == 1;
          a.tiles[a.tile_offset(i, j)] =
              static_cast<std::int8_t>(flip ? -cv : cv);
        }
      }
      const std::vector<std::int8_t> x(k_max, xv);
      const std::vector<float> want = i8_reference(a, x, x_scale);
      for (std::size_t j = 1; j < n_max; ++j) {
        ASSERT_EQ(want[j], static_cast<float>(static_cast<std::int32_t>(xv) *
                                              cv * 65536) *
                               x_scale * 0.5f);
      }
      for (const NamedLane& l : lanes) {
        std::vector<float> got(n_max);
        l.lane(a.tiles.data(), x.data(), k_max, n_max, x_scale,
               a.scales.data(), got.data());
        for (std::size_t j = 0; j < n_max; ++j) {
          EXPECT_EQ(got[j], want[j]) << l.name << " k=2^16 x=" << int{xv}
                                     << " c=" << int{cv} << " j=" << j;
        }
      }
    }
  }
  // Skipped, not passed, where the VNNI lane could not run; a mismatch in
  // the lanes above still fails the test.
  if (vnni_skipped) GTEST_SKIP() << "host CPU lacks avx512vnni+avx512vl";
}

// --- int8 activation quantizer lanes ---------------------------------------
//
// Both lanes must return the scale and the codes of the scalar rule:
// scale = float(max|x|) / 127, inv = 1 / scale, code = lround(x * inv)
// clamped to [-127, 127]. EXPECT_EQ throughout.

using QuantLane = float (*)(const double*, std::int8_t*, std::size_t);

struct NamedQuantLane {
  const char* name;
  QuantLane lane;
};

std::vector<NamedQuantLane> quantizer_lanes() {
  std::vector<NamedQuantLane> lanes{
      {"portable", linalg::simd::i8_quantize_portable}};
#if defined(EDGEDRIFT_SIMD_AVX2)
  lanes.push_back({"avx2", linalg::simd::i8_quantize_avx2});
#endif
  return lanes;
}

/// The rule written out with std::lround.
float quantize_reference(const std::vector<double>& x,
                         std::vector<std::int8_t>& q) {
  double maxabs = 0.0;
  for (const double v : x) maxabs = std::max(maxabs, std::abs(v));
  q.assign(x.size(), 0);
  if (maxabs == 0.0) return 0.0f;
  const float scale = static_cast<float>(maxabs) / 127.0f;
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long code = std::lround(x[i] * static_cast<double>(inv));
    q[i] = static_cast<std::int8_t>(std::clamp(code, -127L, 127L));
  }
  return scale;
}

void expect_quantizer_lanes_match(const std::vector<double>& x,
                                  const char* what) {
  std::vector<std::int8_t> want;
  const float want_scale = quantize_reference(x, want);
  for (const NamedQuantLane& l : quantizer_lanes()) {
    // A guard byte past n catches a lane that writes one code too many.
    std::vector<std::int8_t> got(x.size() + 1, 99);
    const float scale = l.lane(x.data(), got.data(), x.size());
    EXPECT_EQ(scale, want_scale) << l.name << " " << what << " n=" << x.size();
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << l.name << " " << what
                                 << " n=" << x.size() << " i=" << i
                                 << " x=" << x[i];
    }
    EXPECT_EQ(got[x.size()], 99) << l.name << " wrote past n=" << x.size();
  }
}

TEST(SimdKernels, I8QuantizerLanesMatchLroundExactly) {
  Rng rng(59);
  std::vector<std::size_t> lengths{22};
  for (std::size_t n = 1; n <= 9; ++n) lengths.push_back(n);
  // max|x| = 127 * 2^e makes scale 2^e and inv 2^-e exactly, so
  // (m + 0.5) * 2^e lands on t = m + 0.5 exactly; other max|x| values test
  // the float scale and inverse.
  for (const double maxabs : {127.0, 127.0 * 0x1p-7, 127.0 * 0x1p5, 0.73,
                              3.1e-3, 41.9}) {
    const float inv = 1.0f / (static_cast<float>(maxabs) / 127.0f);
    for (const std::size_t n : lengths) {
      // Exact halves where they exist, or the double whose t is nearest
      // below one; then the doubles just below them, signs alternating.
      std::vector<double> halves(n), below(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double m = static_cast<double>(rng.uniform_index(127));
        double v = (m + 0.5) / static_cast<double>(inv);
        while (v * static_cast<double>(inv) > m + 0.5) {
          v = std::nextafter(v, 0.0);
        }
        const double up = std::numeric_limits<double>::infinity();
        while (std::nextafter(v, up) * static_cast<double>(inv) <= m + 0.5) {
          v = std::nextafter(v, up);
        }
        const double sign = i % 2 == 0 ? 1.0 : -1.0;
        halves[i] = sign * v;
        below[i] = sign * std::nextafter(v, 0.0);
      }
      // Plant max|x| at a position that moves with n, with either sign.
      halves[n / 2] = n % 2 == 0 ? maxabs : -maxabs;
      below[n / 2] = -halves[n / 2];
      expect_quantizer_lanes_match(halves, "halves");
      expect_quantizer_lanes_match(below, "below halves");
      std::vector<double> noise(n);
      for (auto& v : noise) v = rng.gaussian() * maxabs;
      expect_quantizer_lanes_match(noise, "gaussian");
    }
  }
  for (const std::size_t n : lengths) {
    expect_quantizer_lanes_match(std::vector<double>(n, 0.0), "all zero");
    std::vector<double> negatives(n);
    for (auto& v : negatives) v = -std::abs(rng.gaussian());
    expect_quantizer_lanes_match(negatives, "negatives");
  }
}

// --- pinned i8 scoring digest ----------------------------------------------
//
// The tile kernels write exact integers through one fixed float order, and
// the quantizer follows one rounding rule, so every lane pairing must
// reproduce a digest captured from the scalar kernels. A rewrite of any
// lane that moves one bit fails here.

/// splitmix64 with doubles built from its integers by exact operations
/// only (no libm), so the digest's inputs are the same bits on every host
/// and in every build.
class ExactRng {
 public:
  explicit ExactRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1): a multiple of 2^-53.
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Uniform in [-1, 1): a multiple of 2^-52.
  double symmetric() {
    return static_cast<double>(next() >> 11) * 0x1p-52 - 1.0;
  }
  /// 2^e for e uniform in [lo, hi].
  double power_of_two(int lo, int hi) {
    return std::ldexp(1.0, lo + static_cast<int>(next() % (hi - lo + 1)));
  }

 private:
  std::uint64_t state_;
};

using TileLane = void (*)(const std::int8_t*, const std::int8_t*, std::size_t,
                          std::size_t, float, const float*, float*);

/// Fills h with activation row `kind` of the digest: all zeros, sigmoid-like
/// [0, 1) values, signed values at a power-of-two scale, exact halves
/// +/-(m + 0.5) * maxabs / 127 with maxabs = 127 * 2^e planted at h[0], and
/// the doubles just below those halves.
void fill_activation_row(ExactRng& rng, int kind, std::vector<double>& h) {
  const double unit = rng.power_of_two(-6, 3);
  for (std::size_t i = 0; i < h.size(); ++i) {
    switch (kind) {
      case 0:
        h[i] = 0.0;
        break;
      case 1:
      case 2:
        h[i] = rng.unit();
        break;
      case 3:
      case 4:
        h[i] = rng.symmetric() * unit;
        break;
      default: {
        const double half =
            (static_cast<double>(rng.next() % 127) + 0.5) * unit;
        const double v = kind == 5 ? half : std::nextafter(half, 0.0);
        h[i] = rng.next() % 2 == 0 ? v : -v;
        break;
      }
    }
  }
  if (kind >= 5) h[0] = 127.0 * unit;
}

/// XXH64 chain over the column quantizer's tiles and scales, then, per
/// activation row, the activation quantizer's scale and codes and the tile
/// lane's dequantized outputs: every output the i8 scoring row computes
/// before its f32 reduction.
std::uint64_t i8_scoring_digest(TileLane tile_lane, QuantLane quant_lane) {
  ExactRng rng(0x5eed2718);
  std::uint64_t d = 0;
  const std::size_t shapes[][2] = {{1, 1},   {3, 7},    {5, 9},
                                   {22, 76}, {22, 874}, {64, 129}};
  for (const auto& shape : shapes) {
    const std::size_t k = shape[0];
    const std::size_t n = shape[1];
    Matrix w(k, n);
    for (std::size_t j = 0; j < n; ++j) {
      const double col_scale = rng.power_of_two(-4, 4);
      for (std::size_t i = 0; i < k; ++i) w(i, j) = rng.symmetric() * col_scale;
    }
    linalg::QuantizedMatrix qa;
    linalg::quantize(w, qa);
    d = edgedrift::util::digest64(qa.tiles.data(), qa.tiles.size(), d);
    d = edgedrift::util::digest64(qa.scales.data(),
                                  qa.scales.size() * sizeof(float), d);
    std::vector<double> h(k);
    std::vector<std::int8_t> q(k);
    std::vector<float> y(n);
    for (int kind = 0; kind < 7; ++kind) {
      fill_activation_row(rng, kind, h);
      const float scale = quant_lane(h.data(), q.data(), k);
      tile_lane(qa.tiles.data(), q.data(), k, n, scale, qa.scales.data(),
                y.data());
      d = edgedrift::util::digest64(&scale, sizeof(scale), d);
      d = edgedrift::util::digest64(q.data(), k, d);
      d = edgedrift::util::digest64(y.data(), n * sizeof(float), d);
    }
  }
  return d;
}

TEST(SimdKernels, I8ScoringDigestIsPinned) {
  // Captured from the scalar quantizer and the tile lanes before the VNNI
  // lane's flipped tiles and the AVX2 quantizer lane existed; equal on the
  // portable, AVX2 and VNNI lanes.
  constexpr std::uint64_t kPinned = 0xb8367499618f2e48ULL;
  namespace simd = linalg::simd;
  std::vector<std::pair<const char*, TileLane>> tile_lanes{
      {"portable", simd::i8_tiles_dequant_portable}};
#if defined(EDGEDRIFT_SIMD_AVX2)
  tile_lanes.push_back({"avx2", simd::i8_tiles_dequant_avx2});
#endif
#if defined(EDGEDRIFT_HAVE_I8_VNNI)
  if (simd::i8_vnni_available()) {
    tile_lanes.push_back({"vnni", simd::i8_tiles_dequant_vnni});
  }
#endif
  for (const auto& [tile_name, tile_lane] : tile_lanes) {
    for (const NamedQuantLane& quant : quantizer_lanes()) {
      EXPECT_EQ(i8_scoring_digest(tile_lane, quant.lane), kPinned)
          << "tile lane " << tile_name << ", quantizer lane " << quant.name;
    }
  }
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
