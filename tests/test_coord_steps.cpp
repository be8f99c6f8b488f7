// Tests for the coordinate steps both copies of the proposed system run
// (drift/steps.hpp): Update_Coord's running mean, Init_Coord's spread
// substitution, and the match and permutation that re-align labels after a
// reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "edgedrift/drift/steps.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;
namespace steps = edgedrift::drift::steps;

/// steps::match_rows with scratch of the documented sizes.
std::vector<std::size_t> match(const Matrix& reference,
                               const Matrix& candidates) {
  const std::size_t n = reference.rows();
  std::vector<std::size_t> perm(n), work(3 * (n + 1));
  std::vector<double> cost(n * n + 3 * (n + 1));
  steps::match_rows<double>(reference.flat(), candidates.flat(),
                            reference.cols(), perm, cost, work);
  return perm;
}

TEST(SequentialKMeans, UpdateMovesCentroidTowardSamples) {
  Matrix coords{{0.0, 0.0}, {10.0, 10.0}};
  std::vector<std::size_t> counts{1, 1};

  // Stream points around (1, 1): cluster 0 should drift there.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x{rng.gaussian(1.0, 0.1),
                                rng.gaussian(1.0, 0.1)};
    EXPECT_EQ(steps::update_coord(coords.flat(), std::span(counts),
                                  std::span(x), false),
              0u);
  }
  EXPECT_NEAR(coords(0, 0), 1.0, 0.1);
  EXPECT_NEAR(coords(0, 1), 1.0, 0.1);
  // Cluster 1 untouched.
  EXPECT_DOUBLE_EQ(coords(1, 0), 10.0);
  EXPECT_EQ(counts[1], 1u);
}

TEST(SequentialKMeans, RunningMeanIsExactMean) {
  Matrix coords(1, 1);
  std::vector<std::size_t> counts{0};
  const std::vector<double> values{3.0, 5.0, 7.0, 9.0};
  for (const double v : values) {
    const std::vector<double> x{v};
    steps::update_coord(coords.flat(), std::span(counts), std::span(x),
                        false);
  }
  EXPECT_DOUBLE_EQ(coords(0, 0), 6.0);
  EXPECT_EQ(counts[0], 4u);
}

TEST(SequentialKMeans, SpreadInitMaximizesPairwiseDistance) {
  Matrix coords(3, 1);
  std::vector<double> saved(1);
  const auto spread_init = [&](double v) {
    const std::vector<double> x{v};
    return steps::spread_coord(coords.flat(), std::span(x),
                               std::span(saved));
  };
  // All coords start at 0; feeding spread-out points must place them.
  spread_init(0.0);
  spread_init(10.0);
  spread_init(-10.0);
  const double spread = steps::pairwise_l1_spread<double>(coords.flat(), 1);
  EXPECT_DOUBLE_EQ(spread, 40.0);  // |0-10| + |0+10| + |10+10| = 40.

  // A midpoint sample cannot improve the spread, so it must be rejected.
  EXPECT_EQ(spread_init(1.0), -1);
  EXPECT_DOUBLE_EQ(steps::pairwise_l1_spread<double>(coords.flat(), 1),
                   40.0);
}

TEST(SequentialKMeans, SpreadInitReplacesWorstCoordinate) {
  Matrix coords(2, 1);
  std::vector<double> saved(1);
  for (const double v : {1.0, 2.0, 100.0}) {
    // {1, 0}, then {2, 0}; 100 must replace the coordinate nearer the other.
    const std::vector<double> x{v};
    steps::spread_coord(coords.flat(), std::span(x), std::span(saved));
  }
  EXPECT_GE(steps::pairwise_l1_spread<double>(coords.flat(), 1), 98.0);
}

TEST(SequentialKMeans, PermutationReordersClusters) {
  Matrix coords{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<std::size_t> counts{5, 9};
  const std::vector<std::size_t> perm{1, 0};
  steps::permute_rows(coords.flat(), 2, perm);
  steps::permute_rows(std::span(counts), 1, perm);
  EXPECT_DOUBLE_EQ(coords(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(coords(1, 1), 2.0);
  EXPECT_EQ(counts[0], 9u);
  EXPECT_EQ(counts[1], 5u);
}

// A 2-cycle is its own inverse; a 3-cycle tells a permutation from its
// inverse. Position i must hold the old row perm[i].
TEST(SequentialKMeans, PermutationFollowsThreeCycle) {
  Matrix rows{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}, {7.0, 8.0}};
  const std::vector<std::size_t> perm{1, 2, 0, 3};
  steps::permute_rows(rows.flat(), 2, perm);
  const std::vector<double> got(rows.flat().begin(), rows.flat().end());
  EXPECT_EQ(got, (std::vector<double>{3.0, 4.0, 5.0, 6.0, 1.0, 2.0, 7.0,
                                      8.0}));
}

// On well-separated rows the match recovers the permutation that scrambled
// the candidates.
TEST(SequentialKMeans, MatchRowsRecoversScrambledRows) {
  for (const std::size_t n : {3UL, 8UL, 11UL}) {
    Rng rng(n);
    Matrix reference(n, 2), candidates(n, 2);
    std::vector<std::size_t> scramble(n);
    for (std::size_t i = 0; i < n; ++i) {
      scramble[i] = (i * 5 + 2) % n;
      reference(i, 0) = 10.0 * static_cast<double>(i);
      reference(i, 1) = -3.0 * static_cast<double>(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        candidates(scramble[i], j) = reference(i, j) + rng.gaussian(0.0, 0.3);
      }
    }
    EXPECT_EQ(match(reference, candidates), scramble) << "n = " << n;
  }
}

// Nine 1-D rows where taking the cheapest pair first is wrong: candidate
// 0.9 is nearest reference 1, but giving it to reference 0 costs
// 0.81 + 4 = 4.81 in all, against 0.01 + 9 = 9.01.
TEST(SequentialKMeans, MatchRowsIsExactBeyondEightRows) {
  Matrix reference(9, 1), candidates(9, 1);
  reference(1, 0) = 1.0;
  candidates(0, 0) = 0.9;
  candidates(1, 0) = 3.0;
  for (std::size_t i = 2; i < 9; ++i) {
    reference(i, 0) = candidates(i, 0) = 100.0 * static_cast<double>(i - 1);
  }
  std::vector<std::size_t> identity(9);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(match(reference, candidates), identity);
}

// Random instances at every C from 1 to 9 against a search over all C!
// bijections.
TEST(SequentialKMeans, MatchRowsEqualsBruteForce) {
  Rng rng(29);
  for (std::size_t n = 1; n <= 9; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      const Matrix reference = Matrix::random_gaussian(n, 2, rng);
      const Matrix candidates = Matrix::random_gaussian(n, 2, rng);
      const auto total = [&](const std::vector<std::size_t>& perm) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          sum += edgedrift::linalg::squared_l2_distance(
              reference.row(i), candidates.row(perm[i]));
        }
        return sum;
      };
      std::vector<std::size_t> perm(n), best;
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      double best_total = 0.0;
      do {
        const double t = total(perm);
        if (best.empty() || t < best_total) {
          best = perm;
          best_total = t;
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
      EXPECT_EQ(match(reference, candidates), best)
          << "n = " << n << ", trial " << trial;
    }
  }
}

}  // namespace
