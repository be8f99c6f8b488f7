#include "edgedrift/model/multi_instance.hpp"

#include <algorithm>
#include <limits>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/thread_pool.hpp"

namespace edgedrift::model {

namespace {

/// Copies columns [from_col, from_col + cols) of `from` into columns
/// [to_col, to_col + cols) of `to`, row by row (equal row counts); into an
/// f32 matrix the copy narrows each element.
template <typename To>
void copy_columns(const linalg::Matrix& from, std::size_t from_col,
                  linalg::MatrixT<To>& to, std::size_t to_col,
                  std::size_t cols) {
  for (std::size_t i = 0; i < from.rows(); ++i) {
    const double* src = from.data() + i * from.cols() + from_col;
    std::copy(src, src + cols, to.data() + i * to.cols() + to_col);
  }
}

}  // namespace

MultiInstanceModel::MultiInstanceModel(std::size_t num_labels,
                                       oselm::ProjectionPtr projection,
                                       double reg_lambda,
                                       double forgetting_factor)
    : projection_(std::move(projection)) {
  EDGEDRIFT_ASSERT(num_labels > 0, "need at least one label");
  EDGEDRIFT_ASSERT(projection_ != nullptr, "projection must not be null");
  EDGEDRIFT_ASSERT(reg_lambda > 0.0, "reg_lambda must be positive");
  EDGEDRIFT_ASSERT(forgetting_factor > 0.0 && forgetting_factor <= 1.0,
                   "forgetting factor must be in (0, 1]");
  config_.output_dim = input_dim();
  config_.reg_lambda = reg_lambda;
  config_.forgetting_factor = forgetting_factor;
  packed_beta_.resize_zero(hidden_dim(), num_labels * input_dim());
  p_.assign(num_labels, linalg::Matrix(hidden_dim(), hidden_dim()));
  samples_seen_.assign(num_labels, 0);
  ph_.resize(hidden_dim());
  err_.resize(input_dim());
  block_writes_.assign(num_labels, 0);
  replica_writes_.assign(num_labels, 0);
}

void MultiInstanceModel::set_numerics_tier(linalg::NumericsTier tier) {
  tier_ = tier;
  if (tier_ == linalg::NumericsTier::kExactF64) return;
  // Size the active tier's replica (grow-only storage), then derive every
  // block from the f64 master so the replica is valid before the first
  // tiered score.
  if (tier_ == linalg::NumericsTier::kFastF32) {
    packed_beta_f32_.resize_discard(packed_beta_.rows(), packed_beta_.cols());
  } else {
    packed_beta_q_.reshape(packed_beta_.rows(), packed_beta_.cols());
  }
  for (std::size_t c = 0; c < num_labels(); ++c) refresh_replica_block(c);
}

void MultiInstanceModel::refresh_replica_block(std::size_t c) {
  const std::size_t n = input_dim();
  if (tier_ == linalg::NumericsTier::kFastF32) {
    copy_columns(packed_beta_, c * n, packed_beta_f32_, c * n, n);
  } else {
    // Fresh per-column scales for the block: a rank-1 train step can move
    // a column's max|w|, and a stale scale would silently saturate.
    linalg::quantize_block(packed_beta_, packed_beta_q_, c * n, n);
  }
  replica_writes_[c] = block_writes_[c];
  ++quantization_epoch_;
}

bool MultiInstanceModel::replicas_in_sync() const {
  return tier_ == linalg::NumericsTier::kExactF64 ||
         replica_writes_ == block_writes_;
}

void MultiInstanceModel::block_written(std::size_t c) {
  ++block_writes_[c];
  // Approximate tiers re-derive the whole block from the f64 beta: a rank-1
  // step can move a column's max|w|, so the i8 scales must be recomputed,
  // and replaying the update in f32 would drift from the f64 beta over many
  // steps. Full re-narrow/re-quantize keeps the replica's error a pure
  // function of the current f64 beta.
  if (tier_ != linalg::NumericsTier::kExactF64) refresh_replica_block(c);
}

void MultiInstanceModel::init_train(const linalg::Matrix& x,
                                    std::span<const int> labels) {
  EDGEDRIFT_ASSERT(x.rows() == labels.size(), "X/label row mismatch");
  // One counting pass over the labels, then one bucketed gather pass over
  // the rows — O(N + C) bookkeeping instead of rescanning all N labels for
  // each of the C labels.
  std::vector<std::size_t> counts(num_labels(), 0);
  for (const int l : labels) {
    EDGEDRIFT_ASSERT(l >= 0 && static_cast<std::size_t>(l) < num_labels(),
                     "label out of range");
    ++counts[static_cast<std::size_t>(l)];
  }
  std::vector<linalg::Matrix> blocks(num_labels());
  for (std::size_t label = 0; label < num_labels(); ++label) {
    EDGEDRIFT_ASSERT(counts[label] > 0, "every label needs initial samples");
    blocks[label].resize_zero(counts[label], x.cols());
  }
  std::vector<std::size_t> cursor(num_labels(), 0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::size_t label = static_cast<std::size_t>(labels[r]);
    blocks[label].set_row(cursor[label]++, x.row(r));
  }
  // The per-label solves are independent — each writes only its own P and
  // beta, and the shared projection is only read — so fan them over the
  // pool. Each solve's result is a pure function of its block; the fan-out
  // changes which thread runs a solve, never its operand order, so the
  // trained state is bit-identical to the sequential loop. Nested
  // parallel_for inside the solves runs inline on the workers
  // (ThreadPool::in_worker).
  std::vector<linalg::Matrix> betas(num_labels());
  util::ThreadPool::global().parallel_for(
      0, num_labels(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t label = lo; label < hi; ++label) {
          oselm::solve_batch(*projection_, blocks[label], blocks[label],
                             config_.reg_lambda, betas[label], p_[label]);
        }
      },
      /*min_chunk=*/1);
  // Block writes stay on this thread: a replica refresh bumps the shared
  // quantization epoch.
  for (std::size_t label = 0; label < num_labels(); ++label) {
    copy_columns(betas[label], 0, packed_beta_, label * input_dim(),
                 input_dim());
    samples_seen_[label] = counts[label];
    block_written(label);
  }
  initialized_ = true;
}

void MultiInstanceModel::init_sequential() {
  packed_beta_.fill(0.0);
  for (std::size_t c = 0; c < num_labels(); ++c) {
    oselm::set_p_prior(p_[c], config_.reg_lambda);
    samples_seen_[c] = 0;
    block_written(c);
  }
  initialized_ = true;
}

namespace {

Prediction argmin_score(std::span<const double> s) {
  Prediction best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] < best.score) {
      best.label = i;
      best.score = s[i];
    }
  }
  return best;
}

}  // namespace

void MultiInstanceModel::score_batch(linalg::ConstMatrixView x,
                                     BatchWorkspace& ws,
                                     const linalg::ConstMatrixView* hidden)
    const {
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "batch feature dim mismatch");
  EDGEDRIFT_ASSERT(hidden == nullptr || (hidden->rows() == x.rows() &&
                                         hidden->cols() == hidden_dim()),
                   "hidden block shape mismatch");
  EDGEDRIFT_ASSERT(initialized_, "score_batch() before initialization");
  EDGEDRIFT_DASSERT(replicas_in_sync(), "tier replica missed a beta update");
  const std::size_t rows = x.rows();
  const std::size_t n = input_dim();
  const std::size_t packed_n = packed_beta_.cols();
  // One row takes the per-row kernels, more rows the GEMMs. Every pair
  // runs the same ascending-k accumulation per output element, so the
  // choice never changes a score.
  const bool one_row = rows == 1;
  if (hidden == nullptr) {
    if (one_row) {
      project(x.row(0), ws);
    } else {
      projection_->hidden_batch_into(x, ws.hidden);
    }
  }
  const linalg::ConstMatrixView h =
      hidden != nullptr ? *hidden : linalg::ConstMatrixView(ws.hidden);
  ws.scores.resize_discard(rows, num_labels());  // Fully written below.

  if (tier_ == linalg::NumericsTier::kExactF64) {
    // R = H * packed_beta: row r, columns [c*n, (c+1)*n) hold label c's
    // reconstruction of row r, bit-identical to a matvec on its block.
    ws.recon.resize_discard(rows, packed_n);
    if (one_row) {
      linalg::matvec_transposed(packed_beta_, h.row(0), ws.recon.row(0));
    } else {
      linalg::matmul_parallel_into(h, packed_beta_, ws.recon);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const double> xr = x.row(r);
      const double* recon_row = ws.recon.data() + r * packed_n;
      for (std::size_t label = 0; label < num_labels(); ++label) {
        // One squared_l2_distance MSE reduction, the kernel a standalone
        // OS-ELM autoencoder scores with, keeps a label's score
        // bit-identical to one.
        const std::span<const double> rr{recon_row + label * n, n};
        ws.scores(r, label) =
            linalg::squared_l2_distance(xr, rr) / static_cast<double>(n);
      }
    }
    return;
  }

  // Approximate tiers: reconstruct against the tier's replica and reduce
  // each row's C label MSEs in f32, all in one loop (linalg::block_mse). The
  // projection stays f64 (it is shared with training), so the tier boundary
  // is exactly the packed-beta product plus the reduction.
  const std::size_t labels = num_labels();
  if (tier_ == linalg::NumericsTier::kFastF32) {
    ws.input_f32.resize_discard(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
      linalg::narrow(x.row(r), ws.input_f32.row(r));
    }
    ws.recon_f32.resize_discard(rows, packed_n);
    ws.hidden_f32.resize_discard(rows, hidden_dim());
    linalg::narrow({h.data(), rows * hidden_dim()}, ws.hidden_f32.flat());
    if (one_row) {
      linalg::matvec_transposed(packed_beta_f32_, ws.hidden_f32.row(0),
                                ws.recon_f32.row(0));
    } else {
      linalg::matmul_parallel_into(ws.hidden_f32, packed_beta_f32_,
                                   ws.recon_f32);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      linalg::block_mse(ws.input_f32.row(r),
                        {ws.recon_f32.data() + r * packed_n, packed_n},
                        {ws.scores.data() + r * labels, labels});
    }
    return;
  }
  // i8, one row at a time: dynamic quantization of the f64 hidden row, an
  // exact int32 matvec into the workspace's one reconstruction row, then
  // the row's label MSEs. The tier's error is just the two grids, and a row
  // gets the same codes and scores in a block of any size.
  ws.input_f32.resize_discard(1, n);
  ws.recon_f32.resize_discard(1, packed_n);
  if (ws.q_row.size() < hidden_dim()) ws.q_row.resize(hidden_dim());
  const std::span<std::int8_t> codes{ws.q_row.data(), hidden_dim()};
  const std::span<float> recon = ws.recon_f32.row(0);
  for (std::size_t r = 0; r < rows; ++r) {
    const float x_scale = linalg::quantize_vector(h.row(r), codes);
    if (x_scale == 0.0f) {
      std::fill(recon.begin(), recon.end(), 0.0f);
    } else {
      linalg::i8_matvec_transposed_dequant(packed_beta_q_, codes, x_scale,
                                           recon);
    }
    linalg::narrow(x.row(r), ws.input_f32.row(0));
    linalg::block_mse(ws.input_f32.row(0), recon,
                      {ws.scores.data() + r * labels, labels});
  }
}

void MultiInstanceModel::predict_batch(
    linalg::ConstMatrixView x, BatchWorkspace& ws, std::span<Prediction> out,
    const linalg::ConstMatrixView* hidden) const {
  EDGEDRIFT_ASSERT(out.size() == x.rows(), "prediction buffer size mismatch");
  score_batch(x, ws, hidden);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = argmin_score(ws.scores.row(r));
  }
}

Prediction MultiInstanceModel::predict(std::span<const double> x,
                                       BatchWorkspace& ws,
                                       std::span<const double> hidden) const {
  Prediction pred;
  const linalg::ConstMatrixView h(hidden);
  predict_batch(linalg::ConstMatrixView(x), ws, {&pred, 1},
                hidden.empty() ? nullptr : &h);
  return pred;
}

std::span<const double> MultiInstanceModel::project(
    std::span<const double> x, BatchWorkspace& ws) const {
  ws.hidden.resize_discard(1, hidden_dim());
  projection_->hidden(x, ws.hidden.row(0));
  return ws.hidden.row(0);
}

Prediction MultiInstanceModel::train_closest(std::span<const double> x,
                                             BatchWorkspace& ws) {
  const Prediction pred = predict(x, ws);
  train_label(ws.hidden.row(0), x, pred.label);
  return pred;
}

void MultiInstanceModel::train_label(std::span<const double> hidden,
                                     std::span<const double> x,
                                     std::size_t label) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  EDGEDRIFT_ASSERT(initialized_, "train_label() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  oselm::train_step(config_, packed_beta_, label * input_dim(), p_[label],
                    hidden, x, ph_, err_);
  ++samples_seen_[label];
  block_written(label);
}

void MultiInstanceModel::apply_permutation(
    std::span<const std::size_t> perm) {
  EDGEDRIFT_ASSERT(perm.size() == num_labels(), "permutation arity mismatch");
  const linalg::Matrix before = packed_beta_;
  std::vector<linalg::Matrix> p(num_labels());
  std::vector<std::size_t> seen(num_labels());
  for (std::size_t c = 0; c < num_labels(); ++c) {
    const std::size_t src = perm[c];
    EDGEDRIFT_ASSERT(src < num_labels(), "permutation index range");
    copy_columns(before, src * input_dim(), packed_beta_, c * input_dim(),
                 input_dim());
    p[c] = std::move(p_[src]);
    seen[c] = samples_seen_[src];
    block_written(c);
  }
  p_ = std::move(p);
  samples_seen_ = std::move(seen);
}

void MultiInstanceModel::restore_label(std::size_t label,
                                       const linalg::Matrix& beta,
                                       linalg::Matrix p,
                                       std::size_t samples_seen) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  EDGEDRIFT_ASSERT(beta.rows() == hidden_dim() && beta.cols() == input_dim(),
                   "restored beta shape mismatch");
  EDGEDRIFT_ASSERT(p.rows() == hidden_dim() && p.cols() == hidden_dim(),
                   "restored P shape mismatch");
  copy_columns(beta, 0, packed_beta_, label * input_dim(), input_dim());
  p_[label] = std::move(p);
  samples_seen_[label] = samples_seen;
  initialized_ = true;
  block_written(label);
}

std::size_t MultiInstanceModel::memory_bytes() const {
  // One sample's BatchWorkspace rows (hidden, fused reconstruction, scores)
  // are caller-owned but still part of the device working set.
  const std::size_t sample_rows =
      hidden_dim() + num_labels() * input_dim() + num_labels();
  std::size_t bytes = projection_->memory_bytes() +
                      packed_beta_.memory_bytes() +
                      (ph_.capacity() + err_.capacity() + sample_rows) *
                          sizeof(double);
  for (const linalg::Matrix& p : p_) bytes += p.memory_bytes();
  return bytes;
}

}  // namespace edgedrift::model
