#include "oracle/classifier.hpp"

#include <algorithm>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::oselm {
namespace {

OsElmConfig classifier_config(std::size_t num_labels, double reg_lambda,
                              double forgetting_factor) {
  EDGEDRIFT_ASSERT(num_labels >= 2, "classifier needs at least two labels");
  OsElmConfig config;
  config.output_dim = num_labels;
  config.reg_lambda = reg_lambda;
  config.forgetting_factor = forgetting_factor;
  return config;
}

}  // namespace

Classifier::Classifier(ProjectionPtr projection, std::size_t num_labels,
                       double reg_lambda, double forgetting_factor)
    : net_(std::move(projection),
           classifier_config(num_labels, reg_lambda, forgetting_factor)),
      onehot_scratch_(num_labels),
      out_scratch_(num_labels) {}

void Classifier::init_train(const linalg::Matrix& x,
                            std::span<const int> labels) {
  EDGEDRIFT_ASSERT(x.rows() == labels.size(), "X/label row mismatch");
  // One-hot targets in {-1, +1}: the symmetric coding conditions the ridge
  // solution better than {0, 1}.
  linalg::Matrix t(x.rows(), num_labels(), -1.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int l = labels[i];
    EDGEDRIFT_ASSERT(l >= 0 && static_cast<std::size_t>(l) < num_labels(),
                     "label out of range");
    t(i, static_cast<std::size_t>(l)) = 1.0;
  }
  net_.init_train(x, t);
}

void Classifier::train(std::span<const double> x, std::size_t label) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  std::fill(onehot_scratch_.begin(), onehot_scratch_.end(), -1.0);
  onehot_scratch_[label] = 1.0;
  net_.train(x, onehot_scratch_);
}

std::size_t Classifier::predict(std::span<const double> x) const {
  net_.predict(x, out_scratch_);
  return static_cast<std::size_t>(
      std::max_element(out_scratch_.begin(), out_scratch_.end()) -
      out_scratch_.begin());
}

double Classifier::margin(std::span<const double> x) const {
  net_.predict(x, out_scratch_);
  double best = out_scratch_[0];
  double second = -1e300;
  for (std::size_t i = 1; i < out_scratch_.size(); ++i) {
    if (out_scratch_[i] > best) {
      second = best;
      best = out_scratch_[i];
    } else if (out_scratch_[i] > second) {
      second = out_scratch_[i];
    }
  }
  return best - second;
}

}  // namespace edgedrift::oselm
