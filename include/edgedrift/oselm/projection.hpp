// The random hidden-layer projection of an ELM: h = g(x * A + b).
//
// In ELM the input weights A and biases b are drawn randomly once and never
// trained. Because of that, multiple OS-ELM instances (one per class label,
// Section 3.1 of the paper) can share a single projection — this is what
// makes the multi-instance model fit the Raspberry Pi Pico's 264 kB: the
// dominant d x h weight block is stored once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/oselm/activation.hpp"

namespace edgedrift::util {
class Rng;
}

namespace edgedrift::oselm {

/// Immutable random projection shared by OS-ELM instances.
class Projection {
 public:
  /// Draws A ~ U(-scale, scale) of shape [input_dim, hidden_dim] and
  /// b ~ U(-scale, scale) of length hidden_dim.
  Projection(std::size_t input_dim, std::size_t hidden_dim, Activation act,
             util::Rng& rng, double scale = 1.0);

  /// Rebuilds a projection from explicit weights (deserialization path).
  Projection(linalg::Matrix alpha, std::vector<double> bias, Activation act);

  std::size_t input_dim() const { return alpha_.rows(); }
  std::size_t hidden_dim() const { return alpha_.cols(); }
  Activation activation() const { return act_; }

  /// h = g(x * A + b). `hidden` must have length hidden_dim().
  void hidden(std::span<const double> x, std::span<double> hidden) const;

  /// H = g(X * A + b) for a batch (rows are samples).
  linalg::Matrix hidden_batch(const linalg::Matrix& x) const;

  /// hidden_batch into a caller-provided matrix (resized if needed). Each
  /// row is bit-identical to hidden() on the same sample. Takes a row-block
  /// view, so a contiguous row range of a larger matrix projects without
  /// being copied out first.
  void hidden_batch_into(linalg::ConstMatrixView x, linalg::Matrix& h) const;

  /// hidden_batch_into with alpha's GEMM panels prepacked by a prior
  /// pack_alpha(). Bit-identical to the plain overload; skips the per-call
  /// pack of alpha, which matters when the serving layer projects thousands
  /// of small mega-batches through one immutable projection.
  void hidden_batch_into(linalg::ConstMatrixView x, linalg::Matrix& h,
                         const linalg::PackedGemmB& packed_alpha) const;

  /// Packs alpha's GEMM panels into `out` for the packed hidden_batch_into
  /// overload. Valid as long as this projection is alive (alpha is
  /// immutable).
  void pack_alpha(linalg::PackedGemmB& out) const;

  /// Bytes of weight storage.
  std::size_t memory_bytes() const;

  // Weight access (persistence).
  const linalg::Matrix& alpha() const { return alpha_; }
  std::span<const double> bias() const { return bias_; }

  /// util::digest64 of (input_dim, hidden_dim, activation), chained through
  /// the alpha bytes and then the bias bytes, computed once at
  /// construction. Two projections with equal fingerprints produce
  /// bit-identical hidden() output for the same input, so the serving
  /// layer keys its cross-stream coalescing groups on this value: streams
  /// seeded from one template blob (seed_cold_from) or restored from the
  /// same checkpoint all land in the same group. The deserialization
  /// constructor recomputes the digest from the restored bytes, so the
  /// fingerprint survives checkpoint round trips by construction.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::uint64_t compute_fingerprint() const;

  linalg::Matrix alpha_;
  std::vector<double> bias_;
  Activation act_;
  std::uint64_t fingerprint_ = 0;
};

using ProjectionPtr = std::shared_ptr<const Projection>;

/// Convenience factory returning a shared, immutable projection.
ProjectionPtr make_projection(std::size_t input_dim, std::size_t hidden_dim,
                              Activation act, util::Rng& rng,
                              double scale = 1.0);

}  // namespace edgedrift::oselm
