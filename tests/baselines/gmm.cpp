#include "baselines/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/kmeans.hpp"

namespace edgedrift::cluster {
namespace {

constexpr double kLog2Pi = 1.8378770664093454835;

}  // namespace

DiagonalGmm DiagonalGmm::from_clusters(const linalg::Matrix& x,
                                       std::span<const int> assignments,
                                       std::size_t k, double min_variance) {
  EDGEDRIFT_ASSERT(x.rows() == assignments.size(), "assignment arity");
  EDGEDRIFT_ASSERT(k > 0, "need at least one component");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  DiagonalGmm gmm;
  gmm.means_.resize_zero(k, d);
  gmm.variances_.resize_zero(k, d);
  gmm.weights_.assign(k, 0.0);

  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int c = assignments[i];
    EDGEDRIFT_ASSERT(c >= 0 && static_cast<std::size_t>(c) < k,
                     "assignment out of range");
    ++counts[c];
    auto mean = gmm.means_.row(c);
    auto row = x.row(i);
    for (std::size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    const double inv = 1.0 / static_cast<double>(counts[c]);
    auto mean = gmm.means_.row(c);
    for (std::size_t j = 0; j < d; ++j) mean[j] *= inv;
  }

  // Pooled within-cluster variance, shared across components (SPLL's
  // homoscedastic assumption keeps the statistic chi-square-like).
  std::vector<double> pooled(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto mean = gmm.means_.row(assignments[i]);
    auto row = x.row(i);
    for (std::size_t j = 0; j < d; ++j) {
      const double delta = row[j] - mean[j];
      pooled[j] += delta * delta;
    }
  }
  const double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    pooled[j] = std::max(pooled[j] * inv_n, min_variance);
  }
  for (std::size_t c = 0; c < k; ++c) {
    auto var = gmm.variances_.row(c);
    for (std::size_t j = 0; j < d; ++j) var[j] = pooled[j];
    gmm.weights_[c] =
        n > 0 ? static_cast<double>(counts[c]) / static_cast<double>(n) : 0.0;
  }
  return gmm;
}

DiagonalGmm DiagonalGmm::fit_em(const linalg::Matrix& x, std::size_t k,
                                util::Rng& rng, std::size_t max_iterations,
                                double min_variance) {
  EDGEDRIFT_ASSERT(x.rows() >= k, "need at least k samples");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  // Initialize from a k-means hard clustering.
  const KMeansResult km = kmeans(x, k, rng);
  DiagonalGmm gmm = from_clusters(x, km.assignments, k, min_variance);
  // Give EM per-component variances to refine (start from the pooled ones).

  linalg::Matrix resp(n, k);
  double previous_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    // E-step: responsibilities via log-sum-exp.
    double total_ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      auto row = x.row(i);
      double max_log = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        double log_p = std::log(std::max(gmm.weights_[c], 1e-300));
        const auto mean = gmm.means_.row(c);
        const auto var = gmm.variances_.row(c);
        for (std::size_t j = 0; j < d; ++j) {
          const double delta = row[j] - mean[j];
          log_p -= 0.5 * (kLog2Pi + std::log(var[j]) + delta * delta / var[j]);
        }
        resp(i, c) = log_p;
        max_log = std::max(max_log, log_p);
      }
      double sum = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        resp(i, c) = std::exp(resp(i, c) - max_log);
        sum += resp(i, c);
      }
      total_ll += max_log + std::log(sum);
      const double inv_sum = 1.0 / sum;
      for (std::size_t c = 0; c < k; ++c) resp(i, c) *= inv_sum;
    }

    // M-step.
    for (std::size_t c = 0; c < k; ++c) {
      double nk = 0.0;
      for (std::size_t i = 0; i < n; ++i) nk += resp(i, c);
      nk = std::max(nk, 1e-10);
      auto mean = gmm.means_.row(c);
      std::fill(mean.begin(), mean.end(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double r = resp(i, c);
        auto row = x.row(i);
        for (std::size_t j = 0; j < d; ++j) mean[j] += r * row[j];
      }
      for (std::size_t j = 0; j < d; ++j) mean[j] /= nk;
      auto var = gmm.variances_.row(c);
      std::fill(var.begin(), var.end(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double r = resp(i, c);
        auto row = x.row(i);
        for (std::size_t j = 0; j < d; ++j) {
          const double delta = row[j] - mean[j];
          var[j] += r * delta * delta;
        }
      }
      for (std::size_t j = 0; j < d; ++j) {
        var[j] = std::max(var[j] / nk, min_variance);
      }
      gmm.weights_[c] = nk / static_cast<double>(n);
    }

    if (std::abs(total_ll - previous_ll) <
        1e-8 * (1.0 + std::abs(total_ll))) {
      break;
    }
    previous_ll = total_ll;
  }
  return gmm;
}

double DiagonalGmm::log_density(std::span<const double> x) const {
  EDGEDRIFT_ASSERT(components() > 0, "GMM has no components");
  EDGEDRIFT_ASSERT(x.size() == dim(), "dim mismatch");
  double max_log = -std::numeric_limits<double>::infinity();
  std::vector<double> logs(components());
  for (std::size_t c = 0; c < components(); ++c) {
    double log_p = std::log(std::max(weights_[c], 1e-300));
    const auto mean = means_.row(c);
    const auto var = variances_.row(c);
    for (std::size_t j = 0; j < dim(); ++j) {
      const double delta = x[j] - mean[j];
      log_p -= 0.5 * (kLog2Pi + std::log(var[j]) + delta * delta / var[j]);
    }
    logs[c] = log_p;
    max_log = std::max(max_log, log_p);
  }
  double sum = 0.0;
  for (double l : logs) sum += std::exp(l - max_log);
  return max_log + std::log(sum);
}

double DiagonalGmm::min_mahalanobis_sq(std::span<const double> x) const {
  EDGEDRIFT_ASSERT(components() > 0, "GMM has no components");
  EDGEDRIFT_ASSERT(x.size() == dim(), "dim mismatch");
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < components(); ++c) {
    const auto mean = means_.row(c);
    const auto var = variances_.row(c);
    double acc = 0.0;
    for (std::size_t j = 0; j < dim(); ++j) {
      const double delta = x[j] - mean[j];
      acc += delta * delta / var[j];
    }
    best = std::min(best, acc);
  }
  return best;
}

double DiagonalGmm::mean_log_density(const linalg::Matrix& x) const {
  if (x.rows() == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) acc += log_density(x.row(i));
  return acc / static_cast<double>(x.rows());
}

std::size_t DiagonalGmm::memory_bytes() const {
  return means_.memory_bytes() + variances_.memory_bytes() +
         weights_.capacity() * sizeof(double);
}

}  // namespace edgedrift::cluster
