// The discriminative model of the paper (Section 3.1): one OS-ELM
// autoencoder per class label, all sharing a single random projection.
// Prediction returns the label whose autoencoder reconstructs the sample
// best (smallest anomaly score); sequential training updates only that
// closest label's autoencoder.
//
// Trained state: one packed beta [L x C*n] whose column block c is label
// c's beta, plus one P and one samples-seen count per label. The packed
// beta is the model's only beta. Scoring reads every block in one matvec or
// GEMM; training writes one block in place through OS-ELM's rank-1 step
// (oselm::train_step()), so block c holds the bits a standalone OS-ELM
// autoencoder trained through the same step on label c's rows would hold
// (the tests' oracle, tests/oracle/autoencoder.hpp).
//
// Scoring has one core, score_batch(): a block of rows, with or without
// the caller's hidden rows, scored against every label at once through
// the packed beta. predict_batch() and predict() are its argmin;
// train_closest() and train_label() are the training side, one rank-1
// step per sample, each from a hidden row projected once per sample
// (project()). All scoring scratch lives in a caller-owned BatchWorkspace.
//
// Const-use contract: no const method writes model state (there is no
// mutable member and no lazy repair), so any number of threads may score
// one frozen model at once, each with its own workspace. The serving layer
// depends on it across streams: pipelines restored from one template share
// one model object on every shard worker, and core::Pipeline copies the
// model before any non-const call while another owner holds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/linalg/quant.hpp"
#include "edgedrift/oselm/oselm.hpp"

namespace edgedrift::model {

/// Result of a model prediction.
struct Prediction {
  std::size_t label = 0;  ///< argmin-score label.
  double score = 0.0;     ///< Anomaly score of that label.
};

/// The model's one scratch type: every scoring and training entry point
/// takes a caller-owned workspace, so the model itself holds no mutable
/// scratch and stays safe for concurrent const use on a frozen model (one
/// workspace per thread of control). Reuse one workspace across calls to
/// keep the hot loop allocation-free; the buffers are grow-only
/// (Matrix::resize_discard never reallocates within the high-water
/// capacity), so after reserve() — or after the first call — repeat blocks
/// of any shape up to the high-water mark touch the heap zero times.
struct BatchWorkspace {
  /// rows x hidden_dim: the projection of the last block scored without
  /// caller-supplied hidden rows (never written when they are supplied).
  linalg::Matrix hidden;
  /// f64: rows x (num_labels * input_dim), the fused reconstruction.
  linalg::Matrix recon;
  linalg::Matrix scores;  ///< rows x num_labels: per-label MSE scores.

  // Tiered-scoring scratch (empty — zero bytes — in the f64 tier). The i8
  // tier scores one row at a time, so its f32 buffers hold one row.
  linalg::MatrixF32 hidden_f32;  ///< f32: narrowed hidden activations.
  linalg::MatrixF32 input_f32;   ///< Narrowed input rows (f32 MSE operand).
  linalg::MatrixF32 recon_f32;   ///< f32/i8 fused reconstruction.
  linalg::AlignedVector<std::int8_t> q_row;  ///< i8: one row's hidden codes.

  /// Pre-grows the buffers that `tier`'s scoring reads to the given batch
  /// geometry, and no others, so the first score_batch() call in that tier
  /// is already allocation-free.
  void reserve(std::size_t rows, std::size_t input_dim,
               std::size_t hidden_dim, std::size_t num_labels,
               linalg::NumericsTier tier = linalg::NumericsTier::kExactF64) {
    hidden.resize_zero(rows, hidden_dim);
    scores.resize_zero(rows, num_labels);
    switch (tier) {
      case linalg::NumericsTier::kExactF64:
        recon.resize_zero(rows, num_labels * input_dim);
        break;
      case linalg::NumericsTier::kFastF32:
        hidden_f32.resize_zero(rows, hidden_dim);
        input_f32.resize_zero(rows, input_dim);
        recon_f32.resize_zero(rows, num_labels * input_dim);
        break;
      case linalg::NumericsTier::kQuantI8:
        input_f32.resize_zero(1, input_dim);
        recon_f32.resize_zero(1, num_labels * input_dim);
        if (q_row.size() < hidden_dim) q_row.resize(hidden_dim);
        break;
    }
  }
};

/// Per-label OS-ELM autoencoder bank.
class MultiInstanceModel {
 public:
  /// `num_labels` autoencoders over one shared projection.
  /// forgetting_factor < 1 turns every label into an ONLAD autoencoder.
  MultiInstanceModel(std::size_t num_labels, oselm::ProjectionPtr projection,
                     double reg_lambda = 1e-2, double forgetting_factor = 1.0);

  std::size_t num_labels() const { return p_.size(); }
  std::size_t input_dim() const { return projection_->input_dim(); }
  std::size_t hidden_dim() const { return projection_->hidden_dim(); }
  /// Every label's OS-ELM hyper-parameters (output_dim == input_dim()).
  const oselm::OsElmConfig& config() const { return config_; }

  /// Batch initial training: label L trains on the rows of X whose label
  /// is L. Labels must be in [0, num_labels).
  void init_train(const linalg::Matrix& x, std::span<const int> labels);

  /// Data-free init of every label (pure-sequential start): beta = 0,
  /// P = I / lambda.
  void init_sequential();

  /// The scoring core (Algorithm 1 line 6 for a block of rows): scores
  /// every label on every row of X into ws.scores, where ws.scores(r, c)
  /// at f64 is bit-identical to the score a standalone OS-ELM autoencoder
  /// holding label c's state gives x.row(r). One shared hidden projection feeds a
  /// fused reconstruction of all C labels against the active tier's packed
  /// beta, then one MSE reduction per label. At f64 and f32 the kernel
  /// follows from the row count: a 1-row block takes the per-row fused
  /// matvec, a longer block the fused [rows x C*n] GEMM, and the two agree
  /// bit for bit row by row. The i8 tier scores every block one row at a
  /// time (quantize the f64 hidden row, tile matvec, the row's C label
  /// reductions in one loop). So in every tier a row scores identically
  /// whatever block it arrives in.
  ///
  /// X is a row-block view (Matrix converts implicitly), so a contiguous
  /// row range — a drain burst in a ring slab, a calibration chunk — scores
  /// in place with zero copies. `hidden` (optional) supplies the hidden
  /// rows H = g(X * A + b): [x.rows() x hidden_dim] computed by this
  /// model's projection (or any projection with an equal fingerprint) on
  /// exactly the rows of `x`, as the serving layer's coalesced drain does.
  /// The projection is row-independent and bit-identical across batch
  /// shapes, so supplied rows score exactly like projected ones. Supplied
  /// rows may alias ws.hidden: the core never writes ws.hidden then.
  void score_batch(linalg::ConstMatrixView x, BatchWorkspace& ws,
                   const linalg::ConstMatrixView* hidden = nullptr) const;

  /// Label = argmin label score (Algorithm 1 lines 6–7) for every row:
  /// out[r] from ws.scores.row(r) after score_batch(x, ws, hidden). `out`
  /// must have length x.rows().
  void predict_batch(linalg::ConstMatrixView x, BatchWorkspace& ws,
                     std::span<Prediction> out,
                     const linalg::ConstMatrixView* hidden = nullptr) const;

  /// predict_batch() of the 1-row block x. `hidden`, when not empty, is
  /// x's hidden row (project()), scored as a supplied row.
  Prediction predict(std::span<const double> x, BatchWorkspace& ws,
                     std::span<const double> hidden = {}) const;

  /// Projects x into ws.hidden and returns that row: one projection that a
  /// caller can both train from (train_label()) and score (predict()'s
  /// `hidden`), in either order, since training never changes it.
  std::span<const double> project(std::span<const double> x,
                                  BatchWorkspace& ws) const;

  /// Predicts, then sequentially trains the winning label; returns the
  /// prediction made before training. The sample is projected once: the
  /// winner's training step (err = t - beta^T h) reuses the hidden row the
  /// scoring core left in ws.hidden.
  Prediction train_closest(std::span<const double> x, BatchWorkspace& ws);

  /// One rank-1 OS-ELM step of label `label` on x, in place on its block,
  /// from x's hidden row `hidden` (project(), or ws.hidden after scoring x
  /// unsupplied).
  void train_label(std::span<const double> hidden, std::span<const double> x,
                   std::size_t label);

  /// Same as init_sequential(): resets every label's trainable state,
  /// keeping the projection.
  void reset() { init_sequential(); }

  /// Reorders labels so position i holds the previous label perm[i] (its
  /// beta block, P and count). Used after model reconstruction to re-align
  /// rebuilt clusters with the pre-drift label identities.
  void apply_permutation(std::span<const std::size_t> perm);

  /// Overwrites label `label`'s trained state (checkpoint restore): its
  /// beta block, P and samples-seen count. Shapes must be hidden_dim x
  /// input_dim and hidden_dim x hidden_dim.
  void restore_label(std::size_t label, const linalg::Matrix& beta,
                     linalg::Matrix p, std::size_t samples_seen);

  const oselm::ProjectionPtr& projection() const { return projection_; }

  /// The model's beta, column-blocked: packed(i, c * input_dim + j) is label
  /// c's beta(i, j). One matvec/GEMM against it reconstructs every label at
  /// once.
  const linalg::Matrix& packed_beta() const { return packed_beta_; }

  /// Label `label`'s P = (H^T H + lambda I)^-1 over its samples so far.
  const linalg::Matrix& p(std::size_t label) const { return p_[label]; }

  /// Training samples label `label` absorbed since the last init.
  std::size_t samples_seen(std::size_t label) const {
    return samples_seen_[label];
  }

  /// Selects the scoring tier (linalg/numerics.hpp). Training and the f64
  /// packed beta are untouched in every tier; a non-f64 tier builds its
  /// shadow replica of the packed beta immediately and keeps it refreshed
  /// from the f64 beta after every block write. Idempotent per tier value.
  void set_numerics_tier(linalg::NumericsTier tier);
  linalg::NumericsTier numerics_tier() const { return tier_; }

  /// Monotone counter bumped every time a replica block is re-narrowed /
  /// re-quantized from the f64 beta. Stays 0 while the model is in the f64
  /// tier.
  std::uint64_t quantization_epoch() const { return quantization_epoch_; }

  /// Bytes of the device working set: the shared projection, the packed
  /// beta (every label's beta, counted once), every label's P, the rank-1
  /// step's scratch and one sample's workspace rows.
  std::size_t memory_bytes() const;

 private:
  /// Counts a write of label c's beta block and re-derives the block of the
  /// active tier's replica from it.
  void block_written(std::size_t c);

  /// Re-derives label c's column block of the active tier's replica from
  /// the f64 beta (narrow for f32, re-quantize with fresh scales for i8)
  /// and bumps the quantization epoch. Only called when
  /// tier_ != kExactF64.
  void refresh_replica_block(std::size_t c);

  /// True when every replica block was refreshed after its last write.
  bool replicas_in_sync() const;

  oselm::ProjectionPtr projection_;
  oselm::OsElmConfig config_;
  bool initialized_ = false;
  /// hidden_dim x (num_labels * input_dim): every label's beta,
  /// column-blocked.
  linalg::Matrix packed_beta_;
  std::vector<linalg::Matrix> p_;           ///< Per label: hidden x hidden.
  std::vector<std::size_t> samples_seen_;   ///< Per label.
  std::vector<double> ph_;                  ///< Rank-1 step scratch (P h).
  std::vector<double> err_;                 ///< Rank-1 step scratch (err).
  /// Per-block write counter: bumped on every write of a beta block.
  std::vector<std::uint64_t> block_writes_;

  linalg::NumericsTier tier_ = linalg::NumericsTier::kExactF64;
  /// f32 shadow of packed_beta_ (kFastF32 tier only).
  linalg::MatrixF32 packed_beta_f32_;
  /// int8 + per-column-scale replica of packed_beta_ (kQuantI8 tier only).
  linalg::QuantizedMatrix packed_beta_q_;
  /// Per-block block_writes_ snapshot at the last replica refresh.
  std::vector<std::uint64_t> replica_writes_;
  std::uint64_t quantization_epoch_ = 0;
};

}  // namespace edgedrift::model
