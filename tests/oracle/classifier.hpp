// Supervised OS-ELM classifier: a single OS-ELM trained on one-hot label
// targets, predicting by argmax output.
//
// This is the classic OS-ELM usage (Liang et al., 2006). The paper's
// discriminative model instead uses one *autoencoder per label* with
// argmin reconstruction error (Section 3.1) because that choice (a) works
// unsupervised once labels come from clustering, and (b) yields the
// anomaly score that gates the drift detector. The classifier is the
// natural supervised alternative, kept as a baseline for
// `bench_ablation_model` to compare the two; no library path uses it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "oracle/oselm.hpp"

namespace edgedrift::oselm {

/// One-hot OS-ELM classifier.
class Classifier {
 public:
  /// `num_labels` output nodes over the shared projection.
  Classifier(ProjectionPtr projection, std::size_t num_labels,
             double reg_lambda = 1e-2, double forgetting_factor = 1.0);

  std::size_t input_dim() const { return net_.input_dim(); }
  std::size_t num_labels() const { return net_.output_dim(); }
  bool initialized() const { return net_.initialized(); }

  /// Batch initial training on rows of X with integer labels.
  void init_train(const linalg::Matrix& x, std::span<const int> labels);

  /// Data-free init (pure-sequential start).
  void init_sequential() { net_.init_sequential(); }

  /// One sequential training step on a labeled sample.
  void train(std::span<const double> x, std::size_t label);

  /// argmax-output prediction.
  std::size_t predict(std::span<const double> x) const;

  /// Raw output activations (one per label); `out` length num_labels().
  void decision_values(std::span<const double> x,
                       std::span<double> out) const {
    net_.predict(x, out);
  }

  /// Margin = top activation minus runner-up (a cheap confidence proxy).
  double margin(std::span<const double> x) const;

  void reset() { net_.reset(); }
  std::size_t samples_seen() const { return net_.samples_seen(); }
  const OsElm& net() const { return net_; }

  std::size_t memory_bytes(bool include_projection = false) const {
    return net_.memory_bytes(include_projection) +
           (onehot_scratch_.capacity() + out_scratch_.capacity()) *
               sizeof(double);
  }

 private:
  OsElm net_;
  std::vector<double> onehot_scratch_;
  mutable std::vector<double> out_scratch_;
};

}  // namespace edgedrift::oselm
