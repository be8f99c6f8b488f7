#include "baselines/spll.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/kmeans.hpp"

namespace edgedrift::drift {

Spll::Spll(SpllConfig config) : config_(config) {
  EDGEDRIFT_ASSERT(config_.num_clusters > 0, "need at least one cluster");
  EDGEDRIFT_ASSERT(config_.batch_size > 0, "batch size must be positive");
  EDGEDRIFT_ASSERT(config_.quantile > 0.0 && config_.quantile < 1.0,
                   "quantile must be in (0, 1)");
}

void Spll::fit(const linalg::Matrix& reference) {
  EDGEDRIFT_ASSERT(reference.rows() >= config_.num_clusters,
                   "reference smaller than cluster count");
  reference_ = reference;

  util::Rng rng(config_.seed);
  const cluster::KMeansResult km =
      cluster::kmeans(reference_, config_.num_clusters, rng);
  gmm_ = cluster::DiagonalGmm::from_clusters(reference_, km.assignments,
                                             config_.num_clusters);

  // Bootstrap the H0 distribution of the batch statistic from the reference
  // window itself.
  std::vector<double> stats(config_.bootstrap_trials);
  const std::size_t n = reference_.rows();
  for (std::size_t t = 0; t < config_.bootstrap_trials; ++t) {
    double acc = 0.0;
    for (std::size_t i = 0; i < config_.batch_size; ++i) {
      acc += gmm_.min_mahalanobis_sq(reference_.row(rng.uniform_index(n)));
    }
    stats[t] = acc / static_cast<double>(config_.batch_size);
  }
  std::sort(stats.begin(), stats.end());
  const auto idx = static_cast<std::size_t>(std::min<double>(
      double(stats.size()) - 1.0,
      std::ceil(config_.quantile * double(stats.size()))));
  threshold_ = stats[idx];

  buffer_.resize_zero(config_.batch_size, reference.cols());
  buffered_ = 0;
  fitted_ = true;
}

double Spll::statistic(const linalg::Matrix& batch) const {
  EDGEDRIFT_ASSERT(fitted_, "statistic() before fit()");
  if (batch.rows() == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    acc += gmm_.min_mahalanobis_sq(batch.row(i));
  }
  return acc / static_cast<double>(batch.rows());
}

Detection Spll::observe(const Observation& obs) {
  EDGEDRIFT_ASSERT(fitted_, "observe() before fit()");
  EDGEDRIFT_ASSERT(obs.x.size() == buffer_.cols(), "sample dim mismatch");
  buffer_.set_row(buffered_++, obs.x);
  Detection result;
  if (buffered_ == config_.batch_size) {
    // Full batch: the buffer holds exactly batch_size rows.
    buffered_ = 0;
    result.statistic = statistic(buffer_);
    result.statistic_valid = true;
    result.drift = result.statistic > threshold_;
  }
  return result;
}

void Spll::reset() { buffered_ = 0; }

std::size_t Spll::memory_bytes() const {
  // Reference window + test buffer + mixture parameters. The retained
  // window is what puts SPLL far above QuantTree in Table 4.
  return reference_.memory_bytes() + buffer_.memory_bytes() +
         gmm_.memory_bytes();
}

}  // namespace edgedrift::drift
