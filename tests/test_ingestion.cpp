// Serving-layer ingestion semantics (core::PipelineManager ring buffers):
// per-stream FIFO and step-for-step equality against a sequential Pipeline
// reference under chunked drain, ring-wrap tails, backpressure kBlock vs
// kReject, manual dispatch (submit-then-poll, and a drain after inline
// full-ring polls), multi-producer submission into distinct streams,
// telemetry accounting, and the typed SubmitStatus errors on malformed
// requests (unknown id, partial label span, bad width, non-finite values).
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::BackpressurePolicy;
using edgedrift::core::DispatchMode;
using edgedrift::core::ManagerOptions;
using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
using edgedrift::core::StreamTelemetry;
using edgedrift::core::SubmitStatus;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::util::Rng;

GaussianConcept pre_concept() {
  GaussianClass a;
  a.mean.assign(8, 0.2);
  a.stddev = {0.15};
  GaussianClass b;
  b.mean.assign(8, 1.2);
  b.stddev = {0.15};
  return GaussianConcept({a, b});
}

GaussianConcept post_concept() {
  GaussianClass a;
  a.mean.assign(8, 0.2);
  for (std::size_t j = 0; j < 8; j += 2) a.mean[j] += 0.9;
  a.stddev = {0.2};
  GaussianClass b;
  b.mean.assign(8, 0.55);
  for (std::size_t j = 0; j < 8; j += 2) b.mean[j] += 0.9;
  b.stddev = {0.2};
  return GaussianConcept({a, b});
}

PipelineConfig make_config() {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 8;
  config.hidden_dim = 12;
  config.window_size = 40;
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;
  config.seed = 7;
  return config;
}

struct StreamData {
  Dataset train;
  Dataset test;
};

std::vector<StreamData> make_streams(std::size_t n, std::size_t samples = 1500) {
  std::vector<StreamData> streams;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(100 + i);
    StreamData s;
    s.train = edgedrift::data::draw(pre_concept(), 600, rng);
    s.test = edgedrift::data::make_sudden_drift(pre_concept(), post_concept(),
                                                samples, samples / 2, rng);
    streams.push_back(std::move(s));
  }
  return streams;
}

std::vector<PipelineStep> sequential_reference(const PipelineConfig& config,
                                               const StreamData& data) {
  Pipeline reference(config);
  reference.fit(data.train.x, data.train.labels);
  std::vector<PipelineStep> steps;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    steps.push_back(reference.process(data.test.x.row(i)));
  }
  return steps;
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

// A tiny, odd ring capacity with a drain chunk that never divides it: every
// few bursts the drain hits the ring-wrap boundary, so the wrap-tail path
// (contiguous [pos, capacity) segment, then the wrapped remainder from slot
// 0) is exercised constantly. The steps must still be bit-identical to the
// sequential reference.
TEST(Ingestion, ChunkedDrainWithRingWrapsMatchesSequential) {
  const auto data = make_streams(1);
  ManagerOptions options;
  options.queue_capacity = 7;
  options.backpressure = BackpressurePolicy::kBlock;

  PipelineConfig config = make_config();
  config.max_batch_rows = 3;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  const auto expected = sequential_reference(manager.stream(0).config(),
                                             data[0]);

  for (std::size_t i = 0; i < data[0].test.size(); ++i) {
    EXPECT_TRUE(manager.submit(0, data[0].test.x.row(i)));
  }
  manager.drain();
  expect_steps_equal(manager.take_steps(0), expected);

  const StreamTelemetry& t = manager.telemetry(0);
  EXPECT_EQ(t.submitted, data[0].test.size());
  EXPECT_EQ(t.processed, data[0].test.size());
  EXPECT_EQ(manager.stats(0).rejected, 0u);
  EXPECT_LE(manager.stats(0).ring_high_water, options.queue_capacity);
}

// submit_batch publishes whole blocks under one reservation; the steps must
// match both the per-sample submit path and the sequential reference, even
// when the block is far larger than the ring.
TEST(Ingestion, SubmitBatchBlocksUntilDrainedAndMatchesSequential) {
  const auto data = make_streams(1);
  ManagerOptions options;
  options.queue_capacity = 32;
  options.backpressure = BackpressurePolicy::kBlock;

  PipelineConfig config = make_config();
  config.max_batch_rows = 16;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  const auto expected = sequential_reference(manager.stream(0).config(),
                                             data[0]);

  const std::size_t accepted =
      manager.submit_batch(0, data[0].test.x, data[0].test.labels);
  EXPECT_EQ(accepted, data[0].test.size());
  manager.drain();
  expect_steps_equal(manager.take_steps(0), expected);
  // The block dwarfs the 32-slot ring, so the producer must have waited at
  // least once for the consumer to free slots.
  EXPECT_GE(manager.telemetry(0).blocked, 1u);
}

// kReject must drop loudly-counted samples instead of blocking: with no
// consumer (manual dispatch, never polled), exactly queue_capacity samples
// fit and the rest are rejected.
TEST(Ingestion, RejectPolicyCountsDropsInsteadOfBlocking) {
  const auto data = make_streams(1);
  ManagerOptions options;
  options.queue_capacity = 16;
  options.backpressure = BackpressurePolicy::kReject;
  options.dispatch = DispatchMode::kManual;

  PipelineManager manager(make_config(), 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    if (manager.submit(0, data[0].test.x.row(i))) ++accepted;
  }
  EXPECT_EQ(accepted, options.queue_capacity);
  EXPECT_EQ(manager.stats(0).rejected, 50 - options.queue_capacity);

  // Batch submit on the full ring rejects every row.
  EXPECT_EQ(manager.submit_batch(0, data[0].test.x), 0u);
  EXPECT_EQ(manager.stats(0).rejected,
            50 - options.queue_capacity + data[0].test.size());

  // Draining frees the ring; the accepted samples come out in FIFO order.
  manager.drain();
  EXPECT_EQ(manager.telemetry(0).processed, accepted);
  EXPECT_EQ(manager.take_steps(0).size(), accepted);
  EXPECT_TRUE(manager.submit(0, data[0].test.x.row(0)));
}

// Manual dispatch: submit only enqueues; poll() drains on the calling
// thread. The single-threaded submit -> poll -> take_steps loop must match
// the sequential reference exactly.
TEST(Ingestion, ManualDispatchPollMatchesSequential) {
  const auto data = make_streams(1, 800);
  ManagerOptions options;
  options.queue_capacity = 32;
  options.dispatch = DispatchMode::kManual;

  PipelineConfig config = make_config();
  config.max_batch_rows = 16;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  const auto expected = sequential_reference(manager.stream(0).config(),
                                             data[0]);

  std::vector<PipelineStep> steps;
  steps.reserve(data[0].test.size());
  std::size_t i = 0;
  while (i < data[0].test.size()) {
    const std::size_t burst = std::min<std::size_t>(48, data[0].test.size() - i);
    for (std::size_t r = 0; r < burst; ++r) {
      // 48 > the 32-slot capacity with kBlock: the submitting thread
      // drains inline instead of deadlocking (there is no other consumer).
      EXPECT_TRUE(manager.submit(0, data[0].test.x.row(i + r)));
    }
    manager.poll(0);
    manager.take_steps(0, steps);
    i += burst;
  }
  manager.drain();
  manager.take_steps(0, steps);
  expect_steps_equal(steps, expected);
  EXPECT_EQ(manager.telemetry(0).processed, data[0].test.size());
}

// kManual with kBlock: a block larger than queue_capacity drains inline
// through poll() while it is submitted. Several streams on two shards take
// such blocks back to back, so each is listed for the next drain() with
// most of its rows already gone; that drain finishes the rest.
TEST(Ingestion, ManualDrainFinishesInlineFullRingPolls) {
  constexpr std::size_t kStreams = 4;
  const auto data = make_streams(kStreams, 300);
  ManagerOptions options;
  options.queue_capacity = 32;
  options.dispatch = DispatchMode::kManual;
  options.shards = 2;

  PipelineConfig config = make_config();
  config.max_batch_rows = 16;
  PipelineManager manager(config, kStreams, options);
  std::vector<std::vector<PipelineStep>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data[s].train.x, data[s].train.labels);
    expected[s] = sequential_reference(manager.stream(s).config(), data[s]);
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(manager.submit_batch(s, data[s].test.x), data[s].test.size());
    EXPECT_LE(manager.telemetry(s).submitted - manager.telemetry(s).processed,
              options.queue_capacity);
  }
  manager.drain();
  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_equal(manager.take_steps(s), expected[s]);
    EXPECT_EQ(manager.telemetry(s).processed, data[s].test.size());
    EXPECT_GE(manager.telemetry(s).blocked, 1u);
  }
}

// Several producer threads, each feeding its own stream through batch
// submits against a small ring: per-stream FIFO and bit-identity must hold
// for every stream.
TEST(Ingestion, MultiProducerDistinctStreamsStayIndependent) {
  constexpr std::size_t kStreams = 4;
  const auto data = make_streams(kStreams, 900);
  ManagerOptions options;
  options.queue_capacity = 48;

  PipelineConfig config = make_config();
  config.max_batch_rows = 16;
  PipelineManager manager(config, kStreams, options);
  std::vector<std::vector<PipelineStep>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data[s].train.x, data[s].train.labels);
    expected[s] =
        sequential_reference(manager.stream(s).config(), data[s]);
  }

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&, s] {
      // Mix batch and single-sample submits from the same producer.
      const std::size_t half = data[s].test.size() / 2;
      for (std::size_t i = 0; i < half; ++i) {
        manager.submit(s, data[s].test.x.row(i));
      }
      edgedrift::linalg::Matrix rest(data[s].test.size() - half, 8);
      for (std::size_t i = half; i < data[s].test.size(); ++i) {
        rest.set_row(i - half, data[s].test.x.row(i));
      }
      manager.submit_batch(s, rest);
    });
  }
  for (auto& t : producers) t.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_equal(manager.take_steps(s), expected[s]);
    EXPECT_EQ(manager.telemetry(s).processed, data[s].test.size());
    EXPECT_EQ(manager.stats(s).rejected, 0u);
  }
}

// Telemetry invariants after a drained run: the burst histogram accounts
// for every burst, processed == submitted, and the busy clock ran.
TEST(Ingestion, TelemetryAccountsForEveryBurst) {
  const auto data = make_streams(1, 800);
  ManagerOptions options;
  options.queue_capacity = 64;

  PipelineConfig config = make_config();
  config.max_batch_rows = 32;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  manager.submit_batch(0, data[0].test.x);
  manager.drain();

  const StreamTelemetry& t = manager.telemetry(0);
  EXPECT_EQ(t.submitted, data[0].test.size());
  EXPECT_EQ(t.processed, data[0].test.size());
  EXPECT_GE(t.drain_bursts, 1u);
  EXPECT_GE(manager.stats(0).ring_high_water, 1u);
  EXPECT_LE(manager.stats(0).ring_high_water, options.queue_capacity);
  EXPECT_GT(t.busy_ns, 0u);
  EXPECT_GT(t.samples_per_second(), 0.0);
  const std::size_t hist_total =
      std::accumulate(t.drain_burst_hist.begin(), t.drain_burst_hist.end(),
                      std::size_t{0});
  EXPECT_EQ(hist_total, t.drain_bursts);
  // No burst can exceed max_batch_rows = 32 -> buckets above 2^5 stay 0.
  for (std::size_t b = 6; b < t.drain_burst_hist.size(); ++b) {
    EXPECT_EQ(t.drain_burst_hist[b], 0u) << "bucket " << b;
  }
}

// The GEMM batch path must actually serve the drain: after a batched run
// the pipeline's batch telemetry shows pre-scored chunks.
TEST(Ingestion, BatchDrainRoutesThroughProcessBatch) {
  const auto data = make_streams(1, 800);
  PipelineManager manager(make_config(), 1);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  manager.submit_batch(0, data[0].test.x);
  manager.drain();
  EXPECT_GE(manager.stats(0).batch_chunks, 1u);
  EXPECT_GE(manager.stats(0).batch_rows, 1u);
  EXPECT_LE(manager.stats(0).batch_rows, manager.stats(0).samples);
  EXPECT_EQ(manager.stats().totals().batch_rows, manager.stats(0).batch_rows);
}

// Coalesced members must account their busy time: a shared-projection
// group's wall time is split across its members by row share, read from
// the same clock as a per-stream burst in every build (EDGEDRIFT_NO_OBS
// included).
TEST(Ingestion, CoalescedMembersAccountBusyTime) {
  constexpr std::size_t kMembers = 4;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kTick = 16;
  const auto data = make_streams(1);
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  PipelineManager manager(make_config(), 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  const std::size_t first = manager.seed_cold_from(0, kMembers);

  for (std::size_t round = 0; round < kRounds; ++round) {
    const edgedrift::linalg::ConstMatrixView tick{
        data[0].test.x, round * kTick, (round + 1) * kTick};
    for (std::size_t k = 0; k < kMembers; ++k) {
      ASSERT_EQ(manager.submit_batch(first + k, tick), kTick);
    }
    manager.drain();
  }

  std::uint64_t coalesced_gemms = 0;
  for (const auto& shard : manager.stats().shards) {
    coalesced_gemms += shard.coalesced_gemms;
  }
  EXPECT_GT(coalesced_gemms, 0u);
  for (std::size_t k = 0; k < kMembers; ++k) {
    SCOPED_TRACE("member " + std::to_string(first + k));
    const StreamTelemetry& t = manager.telemetry(first + k);
    EXPECT_EQ(t.processed, kRounds * kTick);
    EXPECT_GT(t.busy_ns, 0u);
    EXPECT_GT(t.samples_per_second(), 0.0);
  }
}

// Malformed submissions must fail with a typed status instead of asserting:
// a serving layer fed by untrusted ids cannot crash the process on a bad
// request. A partial true_labels span in particular would silently pair
// rows with the wrong labels and corrupt the supervised error stream.
TEST(Ingestion, SubmitReturnsTypedErrorsInsteadOfAsserting) {
  const auto data = make_streams(1, 100);
  PipelineManager manager(make_config(), 1);
  manager.fit(0, data[0].train.x, data[0].train.labels);

  SubmitStatus status = SubmitStatus::kOk;

  // Unknown stream id: both entry points refuse and name the cause.
  EXPECT_FALSE(manager.submit(99, data[0].test.x.row(0), -1, &status));
  EXPECT_EQ(status, SubmitStatus::kUnknownStream);
  EXPECT_EQ(manager.submit_batch(99, data[0].test.x, {}, &status), 0u);
  EXPECT_EQ(status, SubmitStatus::kUnknownStream);

  // Partial / excess label spans: all-or-nothing.
  std::vector<int> partial(data[0].test.size() - 1, 0);
  EXPECT_EQ(manager.submit_batch(0, data[0].test.x, partial, &status), 0u);
  EXPECT_EQ(status, SubmitStatus::kBadLabelSpan);
  std::vector<int> excess(data[0].test.size() + 1, 0);
  EXPECT_EQ(manager.submit_batch(0, data[0].test.x, excess, &status), 0u);
  EXPECT_EQ(status, SubmitStatus::kBadLabelSpan);

  // Row width that does not match the configured input_dim.
  const std::vector<double> narrow(4, 0.0);
  EXPECT_FALSE(manager.submit(0, narrow, -1, &status));
  EXPECT_EQ(status, SubmitStatus::kDimensionMismatch);
  edgedrift::linalg::Matrix wide(2, 16);
  EXPECT_EQ(manager.submit_batch(0, wide, {}, &status), 0u);
  EXPECT_EQ(status, SubmitStatus::kDimensionMismatch);

  // NaN and infinities: the row, or the whole block holding one bad value
  // in its last row, is refused before any slot is reserved.
  const std::size_t submitted = manager.telemetry(0).submitted;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    const auto good = data[0].test.x.row(0);
    std::vector<double> row(good.begin(), good.end());
    row[3] = bad;
    EXPECT_FALSE(manager.submit(0, row, -1, &status));
    EXPECT_EQ(status, SubmitStatus::kNonFinite);
    edgedrift::linalg::Matrix block = data[0].test.x;
    block(block.rows() - 1, 3) = bad;
    EXPECT_EQ(manager.submit_batch(0, block, {}, &status), 0u);
    EXPECT_EQ(status, SubmitStatus::kNonFinite);
    EXPECT_EQ(manager.telemetry(0).submitted, submitted);
  }

  // None of the failures disturbed the stream: a good submit still lands.
  EXPECT_TRUE(manager.submit(0, data[0].test.x.row(0), -1, &status));
  EXPECT_EQ(status, SubmitStatus::kOk);
  manager.drain();
  EXPECT_EQ(manager.telemetry(0).processed, 1u);
}

// An accepted NaN row poisons the detector's recent centroids, after which
// the stream never fires on the drift at row 1000. The row must be refused
// whole (kNonFinite), so the stream steps exactly as the same stream
// without it: one drift, one recovery.
TEST(Ingestion, NonFiniteRowIsRefusedAndDriftStillDetected) {
  const auto data = make_streams(1, 2000);
  const Dataset& test = data[0].test;
  const auto good = test.x.row(200);
  std::vector<double> poisoned(good.begin(), good.end());
  poisoned[3] = std::numeric_limits<double>::quiet_NaN();

  const auto replay = [&](bool inject) {
    ManagerOptions options;
    options.dispatch = DispatchMode::kManual;
    PipelineManager manager(make_config(), 1, options);
    manager.fit(0, data[0].train.x, data[0].train.labels);
    for (std::size_t i = 0; i < test.size(); ++i) {
      if (inject && i == 200) {
        SubmitStatus status = SubmitStatus::kOk;
        EXPECT_FALSE(manager.submit(0, poisoned, -1, &status));
        EXPECT_EQ(status, SubmitStatus::kNonFinite);
      }
      EXPECT_TRUE(manager.submit(0, test.x.row(i)));
    }
    manager.drain();
    return manager.take_steps(0);
  };

  const std::vector<PipelineStep> clean = replay(false);
  std::size_t drifts = 0;
  std::size_t recoveries = 0;
  for (const PipelineStep& step : clean) {
    drifts += step.drift_detected;
    recoveries += step.reconstruction_finished;
  }
  ASSERT_EQ(drifts, 1u) << "the clean stream must detect its one drift";
  ASSERT_EQ(recoveries, 1u);
  expect_steps_equal(replay(true), clean);
}

}  // namespace
