#include "baselines/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"

namespace edgedrift::cluster {

linalg::Matrix kmeans_plus_plus_seed(const linalg::Matrix& x, std::size_t k,
                                     util::Rng& rng) {
  EDGEDRIFT_ASSERT(k > 0 && k <= x.rows(), "k must be in [1, rows]");
  const std::size_t n = x.rows();
  linalg::Matrix centroids(k, x.cols());

  std::vector<double> min_sq_dist(n, std::numeric_limits<double>::infinity());
  std::size_t first = rng.uniform_index(n);
  centroids.set_row(0, x.row(first));

  for (std::size_t c = 1; c < k; ++c) {
    // Refresh distances against the centroid added last round.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d =
          linalg::squared_l2_distance(x.row(i), centroids.row(c - 1));
      min_sq_dist[i] = std::min(min_sq_dist[i], d);
      total += min_sq_dist[i];
    }
    std::size_t chosen = 0;
    if (total <= 0.0) {
      // All points coincide with chosen centroids; fall back to uniform.
      chosen = rng.uniform_index(n);
    } else {
      double target = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= min_sq_dist[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centroids.set_row(c, x.row(chosen));
  }
  return centroids;
}

std::vector<int> assign_to_nearest(const linalg::Matrix& x,
                                   const linalg::Matrix& centroids) {
  std::vector<int> assignments(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    assignments[i] = static_cast<int>(nearest_centroid(x.row(i), centroids));
  }
  return assignments;
}

std::size_t nearest_centroid(std::span<const double> x,
                             const linalg::Matrix& centroids) {
  EDGEDRIFT_ASSERT(centroids.rows() > 0, "no centroids");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const double d = linalg::squared_l2_distance(x, centroids.row(c));
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

KMeansResult kmeans(const linalg::Matrix& x, std::size_t k, util::Rng& rng,
                    const KMeansOptions& options) {
  EDGEDRIFT_ASSERT(x.rows() >= k, "need at least k samples");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  KMeansResult result;
  if (options.plus_plus_init) {
    result.centroids = kmeans_plus_plus_seed(x, k, rng);
  } else {
    result.centroids.resize_zero(k, d);
    for (std::size_t c = 0; c < k; ++c) {
      result.centroids.set_row(c, x.row(rng.uniform_index(n)));
    }
  }
  result.assignments.assign(n, -1);
  result.counts.assign(k, 0);

  linalg::Matrix sums(k, d);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;

    sums.fill(0.0);
    std::fill(result.counts.begin(), result.counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const int c = static_cast<int>(nearest_centroid(x.row(i),
                                                      result.centroids));
      if (c != result.assignments[i]) {
        result.assignments[i] = c;
        changed = true;
      }
      linalg::axpy(1.0, x.row(i), sums.row(c));
      ++result.counts[c];
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (result.counts[c] == 0) {
        // Re-seed an empty cluster with the point farthest from its centroid.
        std::size_t farthest = 0;
        double worst = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double dist = linalg::squared_l2_distance(
              x.row(i), result.centroids.row(result.assignments[i]));
          if (dist > worst) {
            worst = dist;
            farthest = i;
          }
        }
        result.centroids.set_row(c, x.row(farthest));
        changed = true;
        continue;
      }
      const double inv = 1.0 / static_cast<double>(result.counts[c]);
      auto centroid = result.centroids.row(c);
      auto sum = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        const double next = sum[j] * inv;
        const double delta = next - centroid[j];
        movement += delta * delta;
        centroid[j] = next;
      }
    }

    if (!changed || movement < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Final assignment + inertia against the final centroids.
  result.inertia = 0.0;
  std::fill(result.counts.begin(), result.counts.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = nearest_centroid(x.row(i), result.centroids);
    result.assignments[i] = static_cast<int>(c);
    ++result.counts[c];
    result.inertia +=
        linalg::squared_l2_distance(x.row(i), result.centroids.row(c));
  }
  return result;
}

}  // namespace edgedrift::cluster
