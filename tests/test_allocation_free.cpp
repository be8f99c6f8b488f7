// Locks in the allocation-free steady state of Pipeline::process(): after
// fit() and a short warm-up (grow-only workspaces reach their high-water
// mark), processing a sample performs ZERO heap allocations. This is the
// on-device property the kernel-workspace plumbing exists for — a
// Pico-class target cannot afford a malloc per sample, and a regression
// here silently reintroduces one.
//
// Mechanism: counting replacements of the global operator new/delete,
// plain and aligned, enabled only around the measured loop. The aligned
// forms carry every Matrix, AlignedVector and ring page allocation
// (linalg/matrix.hpp), so their growth is counted too. The dimensions are
// chosen ABOVE the stack-buffer thresholds of the per-instance reference
// path (256 doubles in OsElm::predict / Autoencoder::score), so the test
// fails if the pipeline ever falls back from its BatchWorkspace to those
// heap-fallback paths.
//
// Sanitizer builds replace the allocator themselves; the hooks would fight
// them, so there the counting hooks and the zero-allocation expectations
// are compiled out while every test body still runs: the sanitizers see
// the same single-stream and multi-stream loops the counts cover.
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EDGEDRIFT_ALLOC_HOOKS_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define EDGEDRIFT_ALLOC_HOOKS_DISABLED 1
#endif
#endif

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/obs/stream_obs.hpp"
#include "edgedrift/util/rng.hpp"

namespace {
#if defined(EDGEDRIFT_ALLOC_HOOKS_DISABLED)
constexpr bool kCountingAllocs = false;
#else
constexpr bool kCountingAllocs = true;
#endif
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

#if !defined(EDGEDRIFT_ALLOC_HOOKS_DISABLED)

namespace {
void count_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_alloc();
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, size == 0 ? a : (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Global replacements: every new in the test binary funnels through
// counted_alloc or counted_aligned_alloc, both of which the C allocator
// serves; deletes must therefore free() unconditionally.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !EDGEDRIFT_ALLOC_HOOKS_DISABLED

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

TEST(AllocationFree, SteadyStateProcessDoesNotAllocate) {
  // Dimensions above the 256-double stack thresholds of the per-instance
  // reference path: the workspace plumbing, not the stack buffers, must
  // carry the hot path.
  constexpr std::size_t kDim = 300;
  constexpr std::size_t kHidden = 280;
  constexpr std::size_t kTrainRows = 200;

  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = kHidden;

  Rng rng(7);
  Matrix train(kTrainRows, kDim);
  std::vector<int> labels(kTrainRows);
  for (std::size_t i = 0; i < kTrainRows; ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double mean = labels[i] == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(mean, 0.2);
    }
  }

  Pipeline pipeline(config);
  pipeline.fit(train, labels);

  // Stationary stream, materialized before counting starts.
  constexpr std::size_t kWarmup = 300;
  constexpr std::size_t kMeasured = 200;
  Matrix stream(kWarmup + kMeasured, kDim);
  for (std::size_t i = 0; i < stream.rows(); ++i) {
    const double mean = i % 2 == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      stream(i, j) = rng.gaussian(mean, 0.2);
    }
  }

  // Warm-up: grow-only workspaces reach their steady-state capacity.
  for (std::size_t i = 0; i < kWarmup; ++i) {
    pipeline.process(stream.row(i));
  }
  ASSERT_FALSE(pipeline.recovering())
      << "stationary stream should not trigger a recovery";

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWarmup; i < kWarmup + kMeasured; ++i) {
    pipeline.process(stream.row(i));
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  if (kCountingAllocs) {
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << "steady-state process() must not touch the heap";
  }
}

TEST(AllocationFree, FirstProcessRowsAfterFitDoesNotAllocateInAnyTier) {
  // fit() pre-grows only the scoring buffers the pipeline's tier reads
  // (BatchWorkspace::reserve), so each tier's first row after fit(), with
  // no warm-up, must find every one of them already sized. An explicit
  // anomaly gate keeps fit() from scoring its training rows, which would
  // grow the buffers itself; one row keeps the GEMMs' thread-local packing
  // scratch, which is not the workspace's, out of the count.
  constexpr std::size_t kDim = 24;
  constexpr std::size_t kHidden = 16;
  constexpr std::size_t kLabels = 3;
  constexpr std::size_t kTrainRows = 300;
  constexpr std::size_t kBlock = 1;
  using edgedrift::linalg::NumericsTier;
  for (const NumericsTier tier : {NumericsTier::kExactF64,
                                  NumericsTier::kFastF32,
                                  NumericsTier::kQuantI8}) {
    PipelineConfig config;
    config.num_labels = kLabels;
    config.input_dim = kDim;
    config.hidden_dim = kHidden;
    config.numerics = tier;
    config.theta_error = 1e6;

    Rng rng(17);
    Matrix train(kTrainRows, kDim);
    std::vector<int> labels(kTrainRows);
    Matrix block(kBlock, kDim);
    for (std::size_t i = 0; i < kTrainRows + kBlock; ++i) {
      const std::size_t label = i % kLabels;
      const double mean = 0.5 * static_cast<double>(label);
      if (i < kTrainRows) labels[i] = static_cast<int>(label);
      double* row = i < kTrainRows ? train.data() + i * kDim
                                   : block.data() + (i - kTrainRows) * kDim;
      for (std::size_t j = 0; j < kDim; ++j) row[j] = rng.gaussian(mean, 0.2);
    }

    Pipeline pipeline(config);
    pipeline.fit(train, labels);
    std::vector<edgedrift::core::PipelineStep> steps;
    steps.reserve(kBlock);

    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    pipeline.process_rows(block, {}, steps);
    g_count_allocs.store(false, std::memory_order_relaxed);

    ASSERT_EQ(steps.size(), kBlock);
    if (kCountingAllocs) {
      EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
          << "first process_rows() after fit() allocated at "
          << edgedrift::linalg::tier_name(tier);
    }
  }
}

TEST(AllocationFree, SteadyStateBatchScoringDoesNotAllocate) {
  // The fused batch path: one [rows x C*n] GEMM into a grow-only
  // BatchWorkspace. Dimensions keep the GEMMs below the thread-pool
  // dispatch threshold (~1M madds) — the pool's task plumbing allocates,
  // so the inline kernel must carry batches of this size.
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kHidden = 40;
  constexpr std::size_t kLabels = 3;
  constexpr std::size_t kRows = 64;

  Rng rng(11);
  auto projection = edgedrift::oselm::make_projection(
      kDim, kHidden, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::model::MultiInstanceModel model(kLabels, projection, 1e-2);
  Matrix train(kLabels * 50, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % kLabels);
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(0.3 * static_cast<double>(labels[i]), 0.2);
    }
  }
  model.init_train(train, labels);

  Matrix batch(kRows, kDim);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      batch(i, j) = rng.gaussian(0.3, 0.2);
    }
  }
  const Matrix small_batch = batch.slice_rows(0, kRows / 4);
  std::vector<edgedrift::model::Prediction> preds(kRows);

  edgedrift::model::BatchWorkspace ws;
  ws.reserve(kRows, kDim, kHidden, kLabels);

  // Warm-up one full-size call (the GEMM packing scratch is thread_local
  // and grow-only, outside the workspace).
  model.predict_batch(batch, ws, preds);

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    // Alternate batch shapes: resize_zero within the high-water capacity
    // must never reallocate.
    model.score_batch(batch, ws);
    model.score_batch(small_batch, ws);
    model.predict_batch(batch, ws, {preds.data(), kRows});
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  if (kCountingAllocs) {
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << "steady-state batch scoring must not touch the heap";
  }
}

TEST(AllocationFree, SteadyStateFusedTrainClosestDoesNotAllocate) {
  // The fused predict-then-train step: shared hidden projection, packed
  // matvec, Sherman–Morrison update, the winner's in-place ger_block step
  // on its packed-beta block — all against caller-owned or model-owned
  // scratch.
  constexpr std::size_t kDim = 300;
  constexpr std::size_t kHidden = 280;
  constexpr std::size_t kLabels = 2;

  Rng rng(13);
  auto projection = edgedrift::oselm::make_projection(
      kDim, kHidden, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::model::MultiInstanceModel model(kLabels, projection, 1e-2);
  Matrix train(kLabels * 60, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % kLabels);
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(labels[i] == 0 ? 0.2 : 1.2, 0.2);
    }
  }
  model.init_train(train, labels);

  Matrix stream(80, kDim);
  for (std::size_t i = 0; i < stream.rows(); ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      stream(i, j) = rng.gaussian(i % 2 == 0 ? 0.2 : 1.2, 0.2);
    }
  }

  edgedrift::model::BatchWorkspace ws;
  for (std::size_t i = 0; i < 20; ++i) {
    model.train_closest(stream.row(i), ws);
  }

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::size_t i = 20; i < stream.rows(); ++i) {
    model.train_closest(stream.row(i), ws);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  if (kCountingAllocs) {
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << "steady-state fused train_closest() must not touch the heap";
  }
}

TEST(AllocationFree, BurstRecoveryTrainingDoesNotAllocate) {
  // Recovery training fed in drain-shaped bursts: process_rows() takes a
  // recovering stream's rows one by one through the rank-1 training path
  // (train the nearest coordinate's instance, then predict), which performs
  // zero heap allocations once warm — on a fitted pipeline and on a seeded
  // stream whose first write copied its template's model.
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kHidden = 22;
  constexpr std::size_t kBurst = 8;

  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = kHidden;
  config.window_size = 40;
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;

  Rng rng(23);
  Matrix train(200, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double mean = labels[i] == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(mean, 0.2);
    }
  }
  Pipeline fitted(config);
  fitted.fit(train, labels);

  // A seeded stream: the fitted pipeline's checkpoint becomes a template,
  // and a template delta of it loads onto the template's model, so its
  // first write at detection makes a private copy that then trains under
  // the counter.
  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, fitted));
  const std::optional<edgedrift::io::ModelTemplate> model_template =
      edgedrift::io::load_template(blob);
  ASSERT_TRUE(model_template.has_value());
  std::string delta;
  ASSERT_TRUE(edgedrift::io::save_pipeline(delta, model_template->pipeline,
                                           &*model_template));
  std::optional<Pipeline> seeded = edgedrift::io::load_pipeline(
      delta, std::nullopt, nullptr, &config, &*model_template);
  ASSERT_TRUE(seeded.has_value());
  ASSERT_EQ(&seeded->model(), &model_template->pipeline.model());

  // A drifted stream: the same two classes shifted on the even dimensions,
  // enough rows to detect, cross the coordinate phases and train.
  Matrix post(600, kDim);
  for (std::size_t i = 0; i < post.rows(); ++i) {
    const double mean = i % 2 == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      post(i, j) = rng.gaussian(mean + (j % 2 == 0 ? 0.9 : 0.0), 0.2);
    }
  }

  for (Pipeline* pipeline : {&fitted, &*seeded}) {
    SCOPED_TRACE(pipeline == &fitted ? "fitted" : "seeded");
    std::vector<edgedrift::core::PipelineStep> out;
    out.reserve(2 * kBurst);
    std::size_t at = 0;
    const auto feed = [&] {
      out.clear();
      pipeline->process_rows({post, at, at + kBurst}, {}, out);
      at += kBurst;
    };

    // Detect, then warm through the coordinate phases and the first few
    // training bursts (grow-only buffers reach their high-water marks).
    while (!pipeline->recovering() && at + kBurst <= post.rows()) feed();
    ASSERT_TRUE(pipeline->recovering())
        << "drift must trigger a recovery";
    EXPECT_NE(&pipeline->model(), &model_template->pipeline.model());
    const std::size_t n_update = config.reconstruction.n_update;
    while (pipeline->reconstructor().count() < n_update + 3 * kBurst &&
           at + kBurst <= post.rows()) {
      feed();
    }
    ASSERT_GE(pipeline->reconstructor().count(), n_update + 3 * kBurst);

    // Measure strictly inside phase 3, the train-nearest phase (well short
    // of the n_total/2 phase boundary).
    constexpr std::size_t kMeasuredBursts = 5;
    ASSERT_LT(pipeline->reconstructor().count() + kMeasuredBursts * kBurst,
              config.reconstruction.n_total / 2);
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (std::size_t b = 0; b < kMeasuredBursts; ++b) feed();
    g_count_allocs.store(false, std::memory_order_relaxed);

    if (kCountingAllocs) {
      EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
          << "recovery training must not touch the heap";
    }
    ASSERT_TRUE(pipeline->recovering())
        << "the measured window must lie inside the recovery";
  }
}

TEST(AllocationFree, ReconstructionStepsDoNotAllocate) {
  // Algorithms 2-4 between a detection and the finishing sample: beginning
  // the reconstruction, Init_Coord, Update_Coord and the training phases
  // run on preallocated state. The stream is the StaticPipelineNsl
  // fixture's (seed 71, detector_initial_count 0); allocations are counted
  // per row from the drift row through the row before the finishing row.
  // The finishing row matches and permutes with finish-time scratch, so
  // its count is only recorded.
  edgedrift::data::NslKddLikeConfig data_config;
  data_config.train_size = 800;
  data_config.test_size = 4000;
  data_config.drift_point = 1500;
  edgedrift::data::NslKddLike generator(data_config);
  Rng rng(71);
  const edgedrift::data::Dataset train = generator.training(rng);
  const edgedrift::data::Dataset stream = generator.test_stream(rng);

  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 38;
  config.hidden_dim = 22;
  config.window_size = 100;
  config.detector_initial_count = 0;
  config.theta_error_z = 4.0;
  config.reconstruction = {20, 120, 500};
  Pipeline pipeline(config);
  pipeline.fit(train.x, train.labels);

  bool detected = false;
  bool finished = false;
  std::size_t during = 0;
  for (std::size_t i = 0; i < stream.size() && !finished; ++i) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    const auto step = pipeline.process(stream.x.row(i));
    g_count_allocs.store(false, std::memory_order_relaxed);
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed);
    detected |= step.drift_detected;
    if (!detected) continue;
    if (step.reconstruction_finished) {
      finished = true;
      if (kCountingAllocs) {
        RecordProperty("finishing_row_allocations", static_cast<int>(allocs));
      }
    } else {
      during += allocs;
    }
  }
  ASSERT_TRUE(finished) << "the drift must be detected and recovered";
  if (kCountingAllocs) {
    EXPECT_EQ(during, 0u)
        << "a reconstruction must not touch the heap before its last sample";
  }
}

TEST(AllocationFree, SteadyStateManagerSubmitDrainDoesNotAllocate) {
  // The serving path: submit_batch() copies rows into ring pages mapped
  // from the shard's pool, the drain feeds contiguous page ranges straight
  // through process_rows() and gives each passed page back, and
  // take_steps(out) recycles both step buffers.
  // Manual dispatch keeps the whole loop on this thread — the shard
  // workers' Treiber ready-stack nodes live inside the Stream structs, but
  // handing off to another thread would make the allocation count racy, so
  // the bound is measured single-threaded. Observability recording (counters,
  // submit->drain timestamps, sampled stage latencies) stays enabled
  // throughout, so the zero-allocation bound covers the instrumented path.
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kHidden = 22;
  constexpr std::size_t kRows = 48;  // > max_batch_rows, < a 64-row page.
  constexpr std::size_t kBlocks = 5;  // Queued per round: 240 rows.

  edgedrift::core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = kHidden;
  config.max_batch_rows = 32;

  edgedrift::core::ManagerOptions options;
  options.queue_capacity = 256;  // 4 pages.
  options.dispatch = edgedrift::core::DispatchMode::kManual;

  edgedrift::core::PipelineManager manager(config, 1, options);

  Rng rng(17);
  Matrix train(200, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double mean = labels[i] == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(mean, 0.2);
    }
  }
  manager.fit(0, train, labels);

  // A stationary block, reused 5 times a round: 240 queued rows from a
  // head that moves 240 rows a round span 4 or 5 pages, and most blocks
  // cross a page boundary, so pages are mapped and given back every round.
  Matrix block(kRows, kDim);
  for (std::size_t i = 0; i < kRows; ++i) {
    const double mean = i % 2 == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      block(i, j) = rng.gaussian(mean, 0.2);
    }
  }

  std::vector<edgedrift::core::PipelineStep> steps;
  steps.reserve(kBlocks * kRows);
  const auto round_trip = [&] {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(manager.submit_batch(0, block), kRows);
    }
    manager.poll(0);
    manager.take_steps(0, steps);
    steps.clear();
  };

  // Warm-up: the page pool reaches the 5 pages a round can span (head
  // offsets 0, 48 and 32 in its first three rounds), and the pipeline's
  // grow-only chunk buffers and the steps vectors their high-water marks.
  for (int round = 0; round < 3; ++round) round_trip();
  ASSERT_FALSE(manager.stream(0).recovering())
      << "stationary stream should not trigger a recovery";
  const std::size_t hot_bytes = manager.stats().shards[0].hot_bytes;

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) round_trip();
  g_count_allocs.store(false, std::memory_order_relaxed);

  if (kCountingAllocs) {
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << "steady-state submit()/drain must not touch the heap";
  }
  EXPECT_GT(manager.stream(0).obs().counters.snapshot().samples, 0u)
      << "the counter book must have been live during the measured loop";
  EXPECT_EQ(manager.stats().shards[0].hot_bytes, hot_bytes)
      << "the measured rounds must recycle the warm-up's pages";
  EXPECT_EQ(manager.stats(0).ring_high_water, kBlocks * kRows);
}

// The kManual gateway loop over many streams: submit_batch() lists each
// touched stream on its shard's ready stack, and drain() takes the stacks
// and runs each shard's drain cycle over the listed streams (the coalesced
// planning pass, then each stream's leftovers).
// After a warm-up that touches every stream, the listing path and the
// per-shard chain scratch must not touch the heap while each round touches
// a different subset, with and without coalescing.
TEST(AllocationFree, SteadyStateManualMultiStreamDrainDoesNotAllocate) {
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kSeeded = 11;
  constexpr std::size_t kStreams = kSeeded + 1;
  constexpr std::size_t kRows = 6;

  edgedrift::core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = 12;
  config.recovery = edgedrift::core::RecoveryPolicy::kDetectOnly;

  for (const bool coalesce : {true, false}) {
    SCOPED_TRACE(coalesce ? "coalesce on" : "coalesce off");
    edgedrift::core::ManagerOptions options;
    options.dispatch = edgedrift::core::DispatchMode::kManual;
    options.shards = 2;
    options.queue_capacity = 16;
    options.coalesce = coalesce;
    edgedrift::core::PipelineManager manager(config, 1, options);

    Rng rng(19);
    Matrix train(200, kDim);
    std::vector<int> labels(train.rows());
    for (std::size_t i = 0; i < train.rows(); ++i) {
      labels[i] = static_cast<int>(i % 2);
      const double mean = labels[i] == 0 ? 0.2 : 1.2;
      for (std::size_t j = 0; j < kDim; ++j) {
        train(i, j) = rng.gaussian(mean, 0.2);
      }
    }
    manager.fit(0, train, labels);
    manager.seed_cold_from(0, kSeeded);

    Matrix block(kRows, kDim);
    for (std::size_t i = 0; i < kRows; ++i) {
      const double mean = i % 2 == 0 ? 0.2 : 1.2;
      for (std::size_t j = 0; j < kDim; ++j) {
        block(i, j) = rng.gaussian(mean, 0.2);
      }
    }
    std::vector<edgedrift::core::PipelineStep> steps;
    steps.reserve(2 * kRows);
    // Round r touches the streams whose id is not a multiple of r % 4 + 2,
    // some of them twice, so each drain lists a different subset.
    const auto round_trip = [&](std::size_t round, bool every_stream) {
      const std::size_t skip = round % 4 + 2;
      for (std::size_t id = 0; id < kStreams; ++id) {
        if (!every_stream && id % skip == 0) continue;
        manager.submit_batch(id, block);
        if (id % 3 == 0) manager.submit_batch(id, block);
      }
      manager.drain();
      for (std::size_t id = 0; id < kStreams; ++id) {
        manager.take_steps(id, steps);
        steps.clear();
      }
    };

    // Warm-up: restores every seeded stream and takes every grow-only
    // buffer (step vectors, chain and planning scratch, staging, the
    // shards' ring page pools) to its high-water mark. A ring holds at most
    // 12 rows here, so it spans at most two pages, and in round 10 every
    // stream crosses a page boundary at once (rows 60-65, or 120-131 for
    // the ids that submit twice): from then on each pool holds two pages
    // per stream.
    for (std::size_t round = 0; round < 11; ++round) round_trip(round, true);
    const auto hot_bytes = [&] {
      std::size_t bytes = 0;
      for (const auto& shard : manager.stats().shards) bytes += shard.hot_bytes;
      return bytes;
    };
    const std::size_t warm_bytes = hot_bytes();

    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (std::size_t round = 0; round < 12; ++round) round_trip(round, false);
    g_count_allocs.store(false, std::memory_order_relaxed);

    if (kCountingAllocs) {
      EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
          << "steady-state kManual submit_batch()/drain() must not touch the "
             "heap";
    }
    EXPECT_EQ(manager.hot_streams(), kStreams);
    EXPECT_EQ(manager.telemetry(kStreams - 1).processed,
              manager.telemetry(kStreams - 1).submitted);
    EXPECT_EQ(hot_bytes(), warm_bytes)
        << "the measured rounds must recycle the warm-up's pages";
  }
}

TEST(AllocationFree, UncollectedStepBacklogGrowsGeometrically) {
  // A caller that never calls take_steps() leaves the stream's steps to
  // pile up. Appending a burst must grow that backlog geometrically: an
  // exact-fit reserve per burst reallocates and copies the whole backlog
  // every time — 256 allocations over 256 bursts here.
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kBurst = 4;
  constexpr std::size_t kRounds = 256;

  edgedrift::core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = 12;

  edgedrift::core::ManagerOptions options;
  options.dispatch = edgedrift::core::DispatchMode::kManual;
  edgedrift::core::PipelineManager manager(config, 1, options);

  Rng rng(29);
  Matrix train(200, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double mean = labels[i] == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(mean, 0.2);
    }
  }
  manager.fit(0, train, labels);
  Matrix block(kBurst, kDim);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const double mean = i % 2 == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      block(i, j) = rng.gaussian(mean, 0.2);
    }
  }

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::size_t round = 0; round < kRounds; ++round) {
    manager.submit_batch(0, block);
    manager.drain();
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  if (kCountingAllocs) {
    EXPECT_LE(g_alloc_count.load(std::memory_order_relaxed), 16u)
        << "an uncollected step backlog must grow geometrically";
  }
  EXPECT_EQ(manager.stats(0).drifts, 0u)
      << "a recovery would allocate on its own account";
  EXPECT_EQ(manager.take_steps(0).size(), kRounds * kBurst);
}

TEST(AllocationFree, ObsRecordingDoesNotAllocate) {
  if (!edgedrift::obs::kObsCompiled) {
    GTEST_SKIP() << "built with EDGEDRIFT_NO_OBS";
  }
  // Every obs recording primitive the hot path touches, hammered directly:
  // construction preallocates, then counters, histogram records and journal
  // begin/complete — including ring wraparound — stay off the heap.
  // snapshot() may allocate; it is a stats()-time operation, never hot.
  edgedrift::obs::ObsOptions options;
  options.journal_capacity = 16;
  edgedrift::obs::StreamObs obs(options, 4);
  std::vector<double> distances = {0.5, 1.5, 2.5, 3.5};

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    obs.counters.add_samples();
    obs.counters.add_rejected(2);
    obs.counters.update_ring_high_water(i % 97);
    obs.submit_to_drain.record(i * 13);
    obs.score.record(i * 7);
    obs.journal.begin_event(i, 1.25, 2.5, 100,
                            edgedrift::obs::RecoveryAction::kReconstruct,
                            distances);
    obs.journal.complete_event(i);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  if (kCountingAllocs) {
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << "obs recording must never touch the heap";
  }
  EXPECT_EQ(obs.counters.snapshot().samples, 1000u);
  EXPECT_EQ(obs.submit_to_drain.snapshot().count(), 1000u);
  EXPECT_EQ(obs.journal.total_events(), 1000u);
}

}  // namespace
