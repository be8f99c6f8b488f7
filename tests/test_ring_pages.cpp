// Paged stream rings (core::PipelineManager): a stream's ring maps 64-row
// pages from its shard's pool only for the rows it holds, while
// queue_capacity stays the backlog bound. Every test runs at capacities
// below a page (7), of one page (64), above a page and not a multiple of it
// (100), and at the default (1024): kReject accepts exactly queue_capacity
// rows, kBlock with kManual's inline poll steps like a lone pipeline, so
// does a producer that writes into a page whose older rows are still queued
// with the head mid-page, and the ring part of a shard's hot_bytes is the
// pages the queued rows span, not a full ring per stream. This file runs
// under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/catalogue.hpp"

namespace {

using edgedrift::core::BackpressurePolicy;
using edgedrift::core::DispatchMode;
using edgedrift::core::ManagerOptions;
using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
using edgedrift::core::RecoveryPolicy;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::linalg::ConstMatrixView;
using edgedrift::util::Rng;

constexpr std::size_t kDim = 8;
/// A ring page: 64 rows, each with its label and submit stamp.
constexpr std::size_t kPageRows = 64;
constexpr std::size_t kPageBytes =
    kPageRows * (kDim * sizeof(double) + sizeof(int) + sizeof(std::uint64_t));

/// Pages the rows [first, end) span.
std::size_t pages_spanned(std::uint64_t first, std::uint64_t end) {
  return first == end ? 0
                      : static_cast<std::size_t>((end - 1) / kPageRows -
                                                 first / kPageRows + 1);
}

/// The most pages a ring of `capacity` rows can span: a full ring whose
/// head is mid-page.
std::size_t most_pages(std::size_t capacity) {
  return (capacity + kPageRows - 1) / kPageRows + 1;
}

GaussianConcept pre_concept() {
  GaussianClass a;
  a.mean.assign(kDim, 0.2);
  a.stddev = {0.15};
  GaussianClass b;
  b.mean.assign(kDim, 1.2);
  b.stddev = {0.15};
  return GaussianConcept({a, b});
}

GaussianConcept post_concept() {
  GaussianClass a;
  a.mean.assign(kDim, 0.2);
  for (std::size_t j = 0; j < kDim; j += 2) a.mean[j] += 0.9;
  a.stddev = {0.2};
  GaussianClass b;
  b.mean.assign(kDim, 0.55);
  for (std::size_t j = 0; j < kDim; j += 2) b.mean[j] += 0.9;
  b.stddev = {0.2};
  return GaussianConcept({a, b});
}

PipelineConfig make_config() {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = 12;
  config.window_size = 40;
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;
  config.max_batch_rows = 48;
  config.seed = 7;
  return config;
}

struct StreamData {
  Dataset train;
  Dataset test;
};

/// A sudden drift halfway through `samples` rows: the stream detects and
/// recovers, so the drain runs both the batch path and the row-by-row
/// recovery path over page-bounded bursts.
StreamData make_stream(std::uint64_t seed, std::size_t samples) {
  Rng rng(seed);
  StreamData s;
  s.train = edgedrift::data::draw(pre_concept(), 600, rng);
  s.test = edgedrift::data::make_sudden_drift(pre_concept(), post_concept(),
                                              samples, samples / 2, rng);
  return s;
}

void expect_steps_equal(const std::vector<PipelineStep>& actual,
                        const std::vector<PipelineStep>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(actual[i].prediction.label, expected[i].prediction.label);
    EXPECT_EQ(actual[i].prediction.score, expected[i].prediction.score);
    EXPECT_EQ(actual[i].drift_detected, expected[i].drift_detected);
    EXPECT_EQ(actual[i].reconstructing, expected[i].reconstructing);
    EXPECT_EQ(actual[i].reconstruction_finished,
              expected[i].reconstruction_finished);
  }
}

/// The ring part of shard 0's hot_bytes, given its value before any row
/// was submitted and the pipeline bytes of the streams restored since.
std::size_t ring_bytes(const PipelineManager& manager, std::size_t before,
                       std::size_t restored_bytes = 0) {
  return manager.stats().shards[0].hot_bytes - before - restored_bytes;
}

class PagedRing : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t capacity() const { return GetParam(); }

  ManagerOptions options(BackpressurePolicy backpressure) const {
    ManagerOptions o;
    o.queue_capacity = capacity();
    o.backpressure = backpressure;
    o.dispatch = DispatchMode::kManual;
    return o;
  }
};

// kReject holds exactly queue_capacity rows at every capacity, whether they
// arrive one by one or as one block larger than the ring, and only the
// accepted rows are processed, in order.
TEST_P(PagedRing, RejectAcceptsExactlyQueueCapacity) {
  const std::size_t cap = capacity();
  const StreamData data = make_stream(2100, 3 * cap + 200);
  const PipelineConfig config = make_config();
  PipelineManager manager(config, 1, options(BackpressurePolicy::kReject));
  manager.fit(0, data.train.x, data.train.labels);
  Pipeline reference(manager.stream(0).config());
  reference.fit(data.train.x, data.train.labels);
  const std::size_t before = manager.stats().shards[0].hot_bytes;

  std::vector<PipelineStep> expected;
  std::size_t next = 0;
  // Row by row into an undrained ring: the first `cap` are accepted.
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < cap + 37; ++i) {
    if (manager.submit(0, data.test.x.row(next + i))) ++accepted;
  }
  EXPECT_EQ(accepted, cap);
  EXPECT_EQ(manager.stats(0).rejected, 37u);
  reference.process_rows({data.test.x, next, next + cap}, {}, expected);
  next += cap + 37;
  // A full ring refuses a whole block.
  EXPECT_EQ(manager.submit_batch(0, {data.test.x, next, next + 5}), 0u);
  EXPECT_EQ(ring_bytes(manager, before), pages_spanned(0, cap) * kPageBytes);
  manager.drain();

  // One block of 2 * cap rows into the empty ring, its head now at `cap`:
  // the block's first `cap` rows are accepted.
  next += 5;
  EXPECT_EQ(manager.submit_batch(0, {data.test.x, next, next + 2 * cap}),
            cap);
  reference.process_rows({data.test.x, next, next + cap}, {}, expected);
  manager.drain();

  expect_steps_equal(manager.take_steps(0), expected);
  EXPECT_EQ(manager.stats(0).rejected, 37u + 5u + cap);
  EXPECT_EQ(manager.stats(0).ring_high_water, cap);
  EXPECT_EQ(manager.telemetry(0).processed, 2 * cap);
  // The second fill reuses the first's pages: the pool holds the larger
  // of the two spans.
  EXPECT_EQ(ring_bytes(manager, before),
            std::max(pages_spanned(0, cap), pages_spanned(cap, 2 * cap)) *
                kPageBytes);
}

// kBlock in kManual dispatch: a block far larger than the ring drains
// inline through poll() each time the ring holds queue_capacity rows. The
// steps equal a lone pipeline's, and the ring never held more pages than a
// full ring spans with its head mid-page.
TEST_P(PagedRing, BlockingManualPollStepsLikeALonePipeline) {
  const std::size_t cap = capacity();
  const StreamData data = make_stream(2200, 1500);
  PipelineManager manager(make_config(), 1,
                          options(BackpressurePolicy::kBlock));
  manager.fit(0, data.train.x, data.train.labels);
  Pipeline reference(manager.stream(0).config());
  reference.fit(data.train.x, data.train.labels);
  std::vector<PipelineStep> expected;
  reference.process_rows(data.test.x, {}, expected);
  const std::size_t before = manager.stats().shards[0].hot_bytes;

  EXPECT_EQ(manager.submit_batch(0, data.test.x), data.test.size());
  manager.drain();

  expect_steps_equal(manager.take_steps(0), expected);
  EXPECT_GE(manager.stats(0).drifts, 1u);
  EXPECT_GE(manager.telemetry(0).blocked, 1u);
  EXPECT_EQ(manager.stats(0).ring_high_water, std::min(cap, data.test.size()));
  EXPECT_LE(ring_bytes(manager, before), most_pages(cap) * kPageBytes);
}

// The ring filled to exactly queue_capacity in two blocks, from a head
// that a short tick leaves mid-page: the second block starts in the page
// whose older rows the first block still has queued, and a full ring spans
// up to ceil(capacity / 64) + 1 pages, every entry of the page table. The
// detector reads the submitted labels (an error-rate detector), so the
// steps equal a lone pipeline's only when every label rides with its row.
// The pool holds exactly the most pages the queued rows spanned at once.
TEST_P(PagedRing, WritingIntoAPageWithQueuedRowsStepsLikeALonePipeline) {
  const std::size_t cap = capacity();
  const StreamData data =
      make_stream(2300, std::max<std::size_t>(3000, 4 * (cap + 40)));
  PipelineConfig config = make_config();
  config.detector =
      edgedrift::baselines::detector_spec(edgedrift::baselines::Kind::kDdm);
  PipelineManager manager(config, 1, options(BackpressurePolicy::kReject));
  manager.fit(0, data.train.x, data.train.labels);
  Pipeline reference(manager.stream(0).config());
  reference.fit(data.train.x, data.train.labels);
  const std::size_t before = manager.stats().shards[0].hot_bytes;

  std::vector<PipelineStep> expected;
  std::vector<PipelineStep> actual;
  const std::span<const int> labels(data.test.labels);
  std::size_t head = 0;
  std::size_t next = 0;
  std::size_t spanned = 0;
  const auto submit = [&](std::size_t rows) {
    if (rows == 0) return;
    const ConstMatrixView block{data.test.x, next, next + rows};
    ASSERT_EQ(manager.submit_batch(0, block, labels.subspan(next, rows)),
              rows);
    reference.process_rows(block, labels.subspan(next, rows), expected);
    next += rows;
  };
  const auto drain = [&] {
    spanned = std::max(spanned, pages_spanned(head, next));
    manager.drain();
    head = next;
  };
  std::size_t round = 0;
  for (; next + cap + 40 <= data.test.size(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t first = 1 + (round * 29) % cap;
    submit(first);
    submit(cap - first);
    EXPECT_FALSE(manager.submit(0, data.test.x.row(next)))
        << "a ring holding queue_capacity rows must reject";
    drain();
    // A tick that leaves the head mid-page for the next round.
    submit(1 + round % std::min<std::size_t>(cap, 39));
    drain();
    manager.take_steps(0, actual);
  }

  expect_steps_equal(actual, expected);
  EXPECT_GE(manager.stats(0).drifts, 1u)
      << "the labels must reach the detector";
  EXPECT_EQ(manager.stats(0).ring_high_water, cap);
  EXPECT_EQ(manager.stats(0).rejected, round);
  EXPECT_EQ(ring_bytes(manager, before), spanned * kPageBytes);
  EXPECT_LE(spanned, most_pages(cap));
}

// The label-rich shape: 1-row ticks to N seeded streams, drained each
// round. Each idle stream holds at most its head's partial page, so the
// ring part of the shard's hot_bytes stays within N pages whatever
// queue_capacity is; an eviction gives its stream's page back and the
// restore maps one from the pool. Every stream steps like a lone restore
// of the template.
TEST_P(PagedRing, OneRowTicksHoldAtMostOnePagePerStream) {
  constexpr std::size_t kSeeded = 8;
  constexpr std::size_t kRounds = 150;  // Crosses two page boundaries.
  PipelineConfig config = make_config();
  config.recovery = RecoveryPolicy::kDetectOnly;
  const StreamData data = make_stream(2400, 200);
  PipelineManager manager(config, 1, options(BackpressurePolicy::kBlock));
  manager.fit(0, data.train.x, data.train.labels);
  std::string blob;
  ASSERT_TRUE(edgedrift::io::save_pipeline(blob, manager.stream(0)));
  const std::size_t first = manager.seed_cold_from(0, kSeeded);
  const std::size_t before = manager.stats().shards[0].hot_bytes;

  std::vector<Pipeline> refs;
  std::vector<std::vector<PipelineStep>> expected(kSeeded);
  std::vector<std::vector<PipelineStep>> actual(kSeeded);
  for (std::size_t k = 0; k < kSeeded; ++k) {
    std::optional<Pipeline> ref =
        edgedrift::io::load_pipeline(blob, config.numerics, nullptr, &config);
    ASSERT_TRUE(ref.has_value());
    refs.push_back(std::move(*ref));
  }
  Rng rng(2401);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kSeeded; ++k) {
      const auto row = edgedrift::data::draw(pre_concept(), 1, rng).x;
      ASSERT_EQ(manager.submit_batch(first + k, row), 1u);
      refs[k].process_rows(row, {}, expected[k]);
    }
    manager.drain();
    if (round == kRounds / 2) {
      ASSERT_TRUE(manager.evict(first + 1));
      ASSERT_TRUE(manager.evict(first + 2));
    }
  }
  std::size_t restored_bytes = 0;
  for (std::size_t k = 0; k < kSeeded; ++k) {
    SCOPED_TRACE("seeded stream " + std::to_string(first + k));
    manager.take_steps(first + k, actual[k]);
    expect_steps_equal(actual[k], expected[k]);
    restored_bytes += manager.stream(first + k).detector_memory_bytes();
  }
  const std::size_t ring = ring_bytes(manager, before, restored_bytes);
  EXPECT_GT(ring, 0u);
  EXPECT_LE(ring, kSeeded * kPageBytes);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PagedRing,
                         ::testing::Values(std::size_t{7}, std::size_t{64},
                                           std::size_t{100},
                                           std::size_t{1024}),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "capacity" + std::to_string(p.param);
                         });

}  // namespace
