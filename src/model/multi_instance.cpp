#include "edgedrift/model/multi_instance.hpp"

#include <algorithm>
#include <limits>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/thread_pool.hpp"

namespace edgedrift::model {

MultiInstanceModel::MultiInstanceModel(std::size_t num_labels,
                                       oselm::ProjectionPtr projection,
                                       double reg_lambda,
                                       double forgetting_factor)
    : projection_(std::move(projection)) {
  EDGEDRIFT_ASSERT(num_labels > 0, "need at least one label");
  EDGEDRIFT_ASSERT(projection_ != nullptr, "projection must not be null");
  instances_.reserve(num_labels);
  for (std::size_t i = 0; i < num_labels; ++i) {
    instances_.emplace_back(projection_, reg_lambda, forgetting_factor);
  }
  packed_beta_.resize_zero(projection_->hidden_dim(),
                           num_labels * projection_->input_dim());
  packed_versions_.assign(num_labels, 0);
  replica_versions_.assign(num_labels, 0);
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
  const std::size_t stride = packed_beta_.cols();
  if (tier_ == linalg::NumericsTier::kFastF32) {
    for (std::size_t i = 0; i < hidden_dim(); ++i) {
      const double* EDGEDRIFT_RESTRICT src =
          packed_beta_.data() + i * stride + c * n;
      float* EDGEDRIFT_RESTRICT dst =
          packed_beta_f32_.data() + i * stride + c * n;
      for (std::size_t j = 0; j < n; ++j) dst[j] = static_cast<float>(src[j]);
    }
  } else {
    // Fresh per-column scales for the block: a rank-1 train step can move
    // a column's max|w|, and a stale scale would silently saturate.
    linalg::quantize_block(packed_beta_, packed_beta_q_, c * n, n);
  }
  replica_versions_[c] = packed_versions_[c];
  ++quantization_epoch_;
}

bool MultiInstanceModel::replicas_in_sync() const {
  if (tier_ == linalg::NumericsTier::kExactF64) return true;
  for (std::size_t c = 0; c < num_labels(); ++c) {
    if (replica_versions_[c] != packed_versions_[c]) return false;
  }
  return true;
}

void MultiInstanceModel::init_train(const linalg::Matrix& x,
                                    std::span<const int> labels) {
  EDGEDRIFT_ASSERT(x.rows() == labels.size(), "X/label row mismatch");
  // One counting pass over the labels, then one bucketed gather pass over
  // the rows — O(N + C) bookkeeping instead of rescanning all N labels for
  // each of the C instances.
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
  // The per-instance solves are independent — instance state is disjoint,
  // the shared projection is only read, and repack_block() writes disjoint
  // column blocks of the mirror — so fan them over the pool. Each solve's
  // result is a pure function of its block; the fan-out changes which
  // thread runs a solve, never its operand order, so the trained state is
  // bit-identical to the sequential loop. Nested parallel_for inside the
  // solves runs inline on the workers (ThreadPool::in_worker).
  util::ThreadPool::global().parallel_for(
      0, num_labels(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t label = lo; label < hi; ++label) {
          instances_[label].init_train(blocks[label]);
          repack_block(label);
        }
      },
      /*min_chunk=*/1);
  if (tier_ != linalg::NumericsTier::kExactF64) {
    for (std::size_t c = 0; c < num_labels(); ++c) refresh_replica_block(c);
  }
}

void MultiInstanceModel::init_sequential() {
  for (auto& inst : instances_) inst.init_sequential();
  repack_ensemble();
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
  EDGEDRIFT_ASSERT(instances_.front().initialized(),
                   "score_batch() before initialization");
  EDGEDRIFT_DASSERT(packed_in_sync(), "packed ensemble beta out of sync");
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
    // R = H * packed_beta: row r, columns [c*n, (c+1)*n) hold instance c's
    // reconstruction of row r, bit-identical to its own matvec.
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
        // Same squared_l2_distance kernel as Autoencoder::score() — one
        // shared MSE reduction keeps the fused path bit-identical.
        const std::span<const double> rr{recon_row + label * n, n};
        ws.scores(r, label) =
            linalg::squared_l2_distance(xr, rr) / static_cast<double>(n);
      }
    }
    return;
  }

  // Approximate tiers: reconstruct against the tier's replica and reduce
  // the MSE in f32. The projection stays f64 (it is shared with training),
  // so the tier boundary is exactly the packed-beta product plus the
  // reduction.
  ws.input_f32.resize_discard(rows, n);
  for (std::size_t r = 0; r < rows; ++r) {
    linalg::narrow(x.row(r), ws.input_f32.row(r));
  }
  ws.recon_f32.resize_discard(rows, packed_n);
  if (tier_ == linalg::NumericsTier::kFastF32) {
    ws.hidden_f32.resize_discard(rows, hidden_dim());
    linalg::narrow({h.data(), rows * hidden_dim()}, ws.hidden_f32.flat());
    if (one_row) {
      linalg::matvec_transposed(packed_beta_f32_, ws.hidden_f32.row(0),
                                ws.recon_f32.row(0));
    } else {
      linalg::matmul_parallel_into(ws.hidden_f32, packed_beta_f32_,
                                   ws.recon_f32);
    }
  } else {
    // Dynamic per-row quantization of the f64 hidden row, then an exact
    // int32 matvec per row: the tier's error is just the two grids, and
    // one row gets the same codes in a block of any size.
    if (ws.q_row.size() < hidden_dim()) ws.q_row.resize(hidden_dim());
    linalg::i8_gemm_dequant(h, packed_beta_q_, ws.recon_f32, ws.q_row);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> xr{ws.input_f32.data() + r * n, n};
    const float* recon_row = ws.recon_f32.data() + r * packed_n;
    for (std::size_t label = 0; label < num_labels(); ++label) {
      const std::span<const float> rr{recon_row + label * n, n};
      ws.scores(r, label) =
          static_cast<double>(linalg::squared_l2_distance(xr, rr)) /
          static_cast<double>(n);
    }
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
  instances_[label].train_from_hidden(hidden, x);
  sync_block_after_train(label);
}

void MultiInstanceModel::reset() {
  for (auto& inst : instances_) inst.reset();
  repack_ensemble();
}

void MultiInstanceModel::apply_permutation(
    std::span<const std::size_t> perm) {
  EDGEDRIFT_ASSERT(perm.size() == num_labels(), "permutation arity mismatch");
  std::vector<oselm::Autoencoder> reordered;
  reordered.reserve(instances_.size());
  for (const std::size_t src : perm) {
    EDGEDRIFT_ASSERT(src < instances_.size(), "permutation index range");
    reordered.push_back(std::move(instances_[src]));
  }
  instances_ = std::move(reordered);
  repack_ensemble();
}

const oselm::Autoencoder& MultiInstanceModel::instance(
    std::size_t label) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return instances_[label];
}

oselm::Autoencoder& MultiInstanceModel::instance_mutable(std::size_t label) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return instances_[label];
}

void MultiInstanceModel::repack_block(std::size_t c) {
  const oselm::OsElm& net = instances_[c].net();
  const linalg::Matrix& beta = net.beta();
  const std::size_t n = input_dim();
  const std::size_t stride = packed_beta_.cols();
  for (std::size_t i = 0; i < hidden_dim(); ++i) {
    const double* src = beta.data() + i * n;
    std::copy(src, src + n, packed_beta_.data() + i * stride + c * n);
  }
  packed_versions_[c] = net.beta_version();
  // Replica refresh is the CALLER's duty after repack_block: init_train
  // fans repack_block over the pool, and refresh_replica_block bumps the
  // shared quantization epoch, which must stay single-threaded.
}

void MultiInstanceModel::sync_block_after_train(std::size_t c) {
  const oselm::OsElm& net = instances_[c].net();
  EDGEDRIFT_DASSERT(net.beta_version() == packed_versions_[c] + 1,
                    "packed block missed a beta update");
  // Replay beta += ph (x) err into the owning column block: ger_block runs
  // the identical element-wise scaled_accumulate the dense ger applied to
  // the instance's beta, so the mirror stays bit-equal without a copy.
  linalg::ger_block(packed_beta_, c * input_dim(), 1.0, net.last_update_ph(),
                    net.last_update_err());
  packed_versions_[c] = net.beta_version();
  // Approximate tiers re-derive the whole block from the mutated master:
  // a rank-1 step can move a column's max|w|, so the i8 scales must be
  // recomputed, and replaying the update in f32 would drift from the master
  // over many steps. Full re-narrow/re-quantize keeps the replica's error a
  // pure function of the current master.
  if (tier_ != linalg::NumericsTier::kExactF64) refresh_replica_block(c);
}

void MultiInstanceModel::repack_ensemble() {
  for (std::size_t c = 0; c < num_labels(); ++c) {
    repack_block(c);
    if (tier_ != linalg::NumericsTier::kExactF64) refresh_replica_block(c);
  }
}

bool MultiInstanceModel::packed_in_sync() const {
  for (std::size_t c = 0; c < num_labels(); ++c) {
    if (packed_versions_[c] != instances_[c].net().beta_version()) {
      return false;
    }
  }
  return true;
}

std::size_t MultiInstanceModel::memory_bytes() const {
  // num_labels() doubles account for one sample's score row
  // (BatchWorkspace::scores) — still part of the device working set. The
  // packed ensemble mirror is deliberately excluded: the device profile
  // stores each beta exactly once (see the header comment).
  std::size_t bytes = projection_->memory_bytes() +
                      num_labels() * sizeof(double);
  for (const auto& inst : instances_) {
    bytes += inst.memory_bytes(/*include_projection=*/false);
  }
  return bytes;
}

}  // namespace edgedrift::model
