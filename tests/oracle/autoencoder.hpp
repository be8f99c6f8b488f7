// OS-ELM autoencoder: one label's model of the paper (Section 3.1) as a
// standalone object. Targets equal inputs; the reconstruction error is the
// anomaly score used both for prediction (argmin across per-label instances)
// and for the theta_error gate of the drift detector (Algorithm 1, line 8).
// model::MultiInstanceModel holds C of these as column blocks of one packed
// beta and trains them through the same OS-ELM step
// (edgedrift/oselm/oselm.hpp), so an Autoencoder trained on a label's rows
// holds that label's block bit for bit. The library does not use it: it is
// the per-label reference the tests and benches score the model against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "oracle/oselm.hpp"

namespace edgedrift::oselm {

/// An OS-ELM whose target is its own input.
class Autoencoder {
 public:
  /// Builds over a shared projection. reg_lambda / forgetting_factor as in
  /// OsElmConfig; output_dim is forced to the projection's input_dim.
  Autoencoder(ProjectionPtr projection, double reg_lambda = 1e-2,
              double forgetting_factor = 1.0);

  std::size_t input_dim() const { return net_.input_dim(); }
  std::size_t hidden_dim() const { return net_.hidden_dim(); }
  bool initialized() const { return net_.initialized(); }

  /// Batch initial training on rows of X.
  void init_train(const linalg::Matrix& x);

  /// Data-free init so training can proceed purely sequentially.
  void init_sequential() { net_.init_sequential(); }

  /// One sequential training step on sample x.
  void train(std::span<const double> x) { net_.train(x, x); }

  /// Mean squared reconstruction error of x — the anomaly score. Keeps the
  /// reconstruction on the stack. The per-instance reference path: the
  /// ensemble scores through MultiInstanceModel::score_batch(), which is
  /// bit-identical to it at f64.
  double score(std::span<const double> x) const;

  /// Writes the reconstruction of x into `out` (length input_dim()).
  void reconstruct(std::span<const double> x, std::span<double> out) const {
    net_.predict(x, out);
  }

  /// Resets trainable state, keeping the shared projection.
  void reset() { net_.reset(); }

  std::size_t samples_seen() const { return net_.samples_seen(); }

  const OsElm& net() const { return net_; }

  /// Restores trained state.
  void restore_state(linalg::Matrix beta, linalg::Matrix p,
                     std::size_t samples_seen) {
    net_.restore_state(std::move(beta), std::move(p), samples_seen);
  }

  /// Trainable-state bytes; include_projection adds the shared weights.
  /// Includes the per-sample reconstruction scratch score() keeps on the
  /// stack, so the figure still reflects the device working-set requirement.
  std::size_t memory_bytes(bool include_projection = false) const {
    return net_.memory_bytes(include_projection) +
           input_dim() * sizeof(double);
  }

 private:
  OsElm net_;
};

}  // namespace edgedrift::oselm
