// core::PipelineManager: per-stream ordering, determinism against a
// sequential reference pipeline, aggregated statistics, and drain()
// semantics under concurrent submission.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStats;
using edgedrift::core::PipelineStep;
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

/// Each stream gets its own draw of the same drifting scenario.
std::vector<StreamData> make_streams(std::size_t n) {
  std::vector<StreamData> streams;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(100 + i);
    StreamData s;
    s.train = edgedrift::data::draw(pre_concept(), 600, rng);
    s.test = edgedrift::data::make_sudden_drift(pre_concept(), post_concept(),
                                                1500, 700, rng);
    streams.push_back(std::move(s));
  }
  return streams;
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

TEST(PipelineManager, SeedsStreamsIndependently) {
  PipelineManager manager(make_config(), 3);
  EXPECT_EQ(manager.num_streams(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(manager.stream(i).config().seed, make_config().seed + i);
  }
}

TEST(PipelineManager, MatchesSequentialPipelinePerStream) {
  constexpr std::size_t kStreams = 3;
  const auto data = make_streams(kStreams);

  PipelineManager manager(make_config(), kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data[s].train.x, data[s].train.labels);
  }

  // Reference: plain pipelines built from the manager's own derived
  // per-stream configs, run sequentially.
  std::vector<std::vector<PipelineStep>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    Pipeline reference(manager.stream(s).config());
    reference.fit(data[s].train.x, data[s].train.labels);
    for (std::size_t i = 0; i < data[s].test.size(); ++i) {
      expected[s].push_back(reference.process(data[s].test.x.row(i)));
    }
  }

  // Interleave submissions round-robin so streams genuinely overlap.
  const std::size_t n = data[0].test.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      manager.submit(s, data[s].test.x.row(i));
    }
  }
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_equal(manager.take_steps(s), expected[s]);
    EXPECT_EQ(manager.stats(s).samples, n);
  }

  const PipelineStats totals = manager.stats().totals();
  EXPECT_EQ(totals.samples, n * kStreams);
  std::size_t drifts = 0;
  for (std::size_t s = 0; s < kStreams; ++s) drifts += manager.stats(s).drifts;
  EXPECT_EQ(totals.drifts, drifts);
  EXPECT_GE(totals.drifts, kStreams);  // Every stream crosses the drift.
  EXPECT_GE(totals.recoveries, kStreams);
}

TEST(PipelineManager, SubmitBatchEnqueuesEveryRow) {
  const auto data = make_streams(1);
  PipelineManager manager(make_config(), 1);
  manager.fit(0, data[0].train.x, data[0].train.labels);

  manager.submit_batch(0, data[0].test.x, data[0].test.labels);
  manager.drain();
  EXPECT_EQ(manager.stats(0).samples, data[0].test.size());
  EXPECT_EQ(manager.take_steps(0).size(), data[0].test.size());
  // After take_steps, the stored steps are consumed.
  EXPECT_TRUE(manager.take_steps(0).empty());
}

TEST(PipelineManager, ConcurrentSubmittersKeepPerStreamOrder) {
  constexpr std::size_t kStreams = 2;
  const auto data = make_streams(kStreams);
  PipelineManager manager(make_config(), kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data[s].train.x, data[s].train.labels);
  }

  std::vector<std::vector<PipelineStep>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    Pipeline reference(manager.stream(s).config());
    reference.fit(data[s].train.x, data[s].train.labels);
    for (std::size_t i = 0; i < data[s].test.size(); ++i) {
      expected[s].push_back(reference.process(data[s].test.x.row(i)));
    }
  }

  // One submitter thread per stream, racing against each other.
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kStreams; ++s) {
    submitters.emplace_back([&, s] {
      for (std::size_t i = 0; i < data[s].test.size(); ++i) {
        manager.submit(s, data[s].test.x.row(i));
      }
    });
  }
  for (auto& t : submitters) t.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_equal(manager.take_steps(s), expected[s]);
  }
}

TEST(PipelineManager, DrainOnEmptyManagerReturnsImmediately) {
  PipelineManager manager(make_config(), 1);
  manager.drain();  // Nothing submitted: must not block.
  EXPECT_EQ(manager.stats().totals().samples, 0u);
}

}  // namespace
