// LRU eviction / cold-restore semantics of the sharded serving layer
// (core::PipelineManager with hot_stream_budget / evict() / seed_cold_from):
// the evict->restore round trip must be bit-identical at kExactF64 and
// drift-decision-equivalent at kFastF32/kQuantI8, the hot set must track
// LRU order under the budget, stats must carry across residency cycles, a
// corrupted spill file must surface kRestoreFailed instead of crashing, and
// eviction must stay data-race-free against concurrent submits and stats()
// (this file runs under TSan and ASan/UBSan in CI). Streams seeded from one
// template share its model until their first write, and hot_bytes charges
// that model only to the streams that copied it. The kManual drain visits
// only the streams listed since the last drain, and skips listed streams
// that poll() emptied or evict() pushed cold.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::DispatchMode;
using edgedrift::core::ManagerOptions;
using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
using edgedrift::core::RecoveryPolicy;
using edgedrift::core::SubmitStatus;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::linalg::Matrix;
using edgedrift::linalg::NumericsTier;
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

StreamData make_drift_stream(std::size_t seed, std::size_t samples = 1500) {
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

/// Runs `data` through a one-stream manager with evictions forced at each
/// index in `evict_at` (sorted), returning the full step sequence. Every
/// forced eviction must succeed, and the stream must come back
/// transparently on the next submit.
std::vector<PipelineStep> run_with_evictions(
    const PipelineConfig& config, const ManagerOptions& options,
    const StreamData& data, const std::vector<std::size_t>& evict_at) {
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  std::size_t next_evict = 0;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    if (next_evict < evict_at.size() && i == evict_at[next_evict]) {
      manager.drain();
      EXPECT_TRUE(manager.evict(0)) << "eviction refused at sample " << i;
      EXPECT_FALSE(manager.resident(0));
      ++next_evict;
    }
    SubmitStatus status = SubmitStatus::kOk;
    EXPECT_TRUE(manager.submit(0, data.test.x.row(i), -1, &status));
    EXPECT_EQ(status, SubmitStatus::kOk);
  }
  manager.drain();
  EXPECT_TRUE(manager.resident(0));
  return manager.take_steps(0);
}

// The f64 contract: interrupting a stream with evict -> cold store ->
// restore cycles must not perturb a single bit of any step. The reference
// is a plain sequential Pipeline fed the same samples.
TEST(Eviction, EvictRestoreRoundTripIsBitIdenticalAtF64) {
  const StreamData data = make_drift_stream(100);
  const PipelineConfig config = make_config();

  Pipeline reference(config);
  reference.fit(data.train.x, data.train.labels);
  std::vector<PipelineStep> expected;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    expected.push_back(reference.process(data.test.x.row(i)));
  }

  // Evictions straddle the quiet phase, the drift point, and the
  // post-recovery regime.
  const std::vector<std::size_t> evict_at = {120, 700, 1300};
  const auto actual =
      run_with_evictions(config, ManagerOptions{}, data, evict_at);
  expect_steps_equal(actual, expected);
}

// A lone pipeline round-tripped through a checkpoint before every row at
// which Algorithm 1's window is open (the eviction tests' sudden drift,
// 1000 rows, drift at row 500) steps bit for bit like the uninterrupted
// pipeline and detects the drift: the checkpoint carries the open window.
TEST(Checkpoint, MidWindowRoundTripsStepLikeTheUninterruptedPipeline) {
  const StreamData data = make_drift_stream(100, 1000);
  const PipelineConfig config = make_config();
  Pipeline reference(config);
  reference.fit(data.train.x, data.train.labels);
  std::optional<Pipeline> interrupted(config);
  interrupted->fit(data.train.x, data.train.labels);

  std::vector<PipelineStep> expected, actual;
  std::size_t round_trips = 0;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    if (!interrupted->recovering() &&
        interrupted->centroid_detector()->window_open()) {
      std::string blob;
      ASSERT_TRUE(edgedrift::io::save_pipeline(blob, *interrupted));
      std::string error;
      interrupted =
          edgedrift::io::load_pipeline(blob, config.numerics, &error, &config);
      ASSERT_TRUE(interrupted.has_value()) << error;
      ++round_trips;
    }
    expected.push_back(reference.process(data.test.x.row(i)));
    actual.push_back(interrupted->process(data.test.x.row(i)));
  }
  EXPECT_GT(round_trips, 100u);
  expect_steps_equal(actual, expected);
  EXPECT_TRUE(std::any_of(actual.begin(), actual.end(),
                          [](const PipelineStep& step) {
                            return step.drift_detected;
                          }))
      << "the drift must be detected";
}

/// Drift positions and predicted labels of a step sequence.
struct DecisionTrace {
  std::vector<std::size_t> drift_positions;
  std::vector<int> labels;
};

DecisionTrace trace_of(const std::vector<PipelineStep>& steps) {
  DecisionTrace t;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    t.labels.push_back(steps[i].prediction.label);
    if (steps[i].drift_detected) t.drift_positions.push_back(i);
  }
  return t;
}

/// The reduced-precision contract: same drift events (within a small
/// detection shift), near-total label agreement. The restored replica is
/// requantized from the persisted f64 masters, so it may differ at the last
/// bit from the incrementally-refreshed live replica — decisions, not bits,
/// are what the tier guarantees (linalg/numerics.hpp).
void check_decision_equivalent_under_eviction(NumericsTier tier) {
  const StreamData data = make_drift_stream(200);
  PipelineConfig config = make_config();
  config.numerics = tier;

  PipelineManager uninterrupted(config, 1);
  uninterrupted.fit(0, data.train.x, data.train.labels);
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    uninterrupted.submit(0, data.test.x.row(i));
  }
  uninterrupted.drain();
  const DecisionTrace ref = trace_of(uninterrupted.take_steps(0));
  ASSERT_GE(ref.drift_positions.size(), 1u)
      << "scenario must actually drift or the comparison is vacuous";

  const std::vector<std::size_t> evict_at = {120, 700, 1300};
  const DecisionTrace evicted = trace_of(
      run_with_evictions(config, ManagerOptions{}, data, evict_at));

  ASSERT_EQ(evicted.drift_positions.size(), ref.drift_positions.size());
  for (std::size_t d = 0; d < ref.drift_positions.size(); ++d) {
    const std::size_t a = ref.drift_positions[d];
    const std::size_t b = evicted.drift_positions[d];
    EXPECT_LE(a > b ? a - b : b - a, 25u) << "drift event " << d;
  }
  ASSERT_EQ(evicted.labels.size(), ref.labels.size());
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < ref.labels.size(); ++i) {
    if (ref.labels[i] != evicted.labels[i]) ++disagreements;
  }
  EXPECT_LE(disagreements, ref.labels.size() / 200)
      << "label agreement below 99.5%";
}

TEST(Eviction, EvictRestoreKeepsDriftDecisionsAtF32) {
  check_decision_equivalent_under_eviction(NumericsTier::kFastF32);
}

TEST(Eviction, EvictRestoreKeepsDriftDecisionsAtI8) {
  check_decision_equivalent_under_eviction(NumericsTier::kQuantI8);
}

// Pipeline counters must accumulate across residency cycles: stats(id)
// reports carried + live, stats().totals() sums hot and cold streams alike.
TEST(Eviction, StatsCarryAcrossEvictRestoreCycles) {
  const StreamData data = make_drift_stream(300, 600);
  PipelineManager manager(make_config(), 1);
  manager.fit(0, data.train.x, data.train.labels);

  for (std::size_t i = 0; i < 200; ++i) {
    manager.submit(0, data.test.x.row(i));
  }
  manager.drain();
  ASSERT_TRUE(manager.evict(0));
  EXPECT_EQ(manager.stats(0).samples, 200u);  // Carried while cold.
  EXPECT_EQ(manager.stats().totals().samples, 200u);

  for (std::size_t i = 200; i < 600; ++i) {
    manager.submit(0, data.test.x.row(i));
  }
  manager.drain();
  EXPECT_EQ(manager.stats(0).samples, 600u);  // Carried + live.
  EXPECT_EQ(manager.stats().totals().samples, 600u);

  const edgedrift::obs::Snapshot snap = manager.stats();
  ASSERT_EQ(snap.streams.size(), 1u);
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_EQ(snap.shards[0].hot_streams, 1u);
  EXPECT_EQ(snap.shards[0].cold_streams, 0u);
  EXPECT_EQ(snap.shards[0].evictions, 1u);
  EXPECT_EQ(snap.shards[0].restores, 1u);
  // The latency histograms are compiled out under EDGEDRIFT_NO_OBS.
  if (!edgedrift::obs::kObsCompiled) return;
  // The eviction/restore latency histograms must record exactly one sample
  // per transition, with a sane (non-zero, bounded) magnitude — the
  // restore-latency surface the density benchmarks gate on.
  EXPECT_EQ(snap.shards[0].evict_ns.count(), 1u);
  ASSERT_EQ(snap.shards[0].restore_ns.count(), 1u);
  EXPECT_GT(snap.shards[0].restore_ns.max_ns, 0u);
  EXPECT_LT(snap.shards[0].restore_ns.mean_ns(), 1e9);  // < 1 s each.
}

// An evicted stream carries its drift journal as one journal would: the
// newest journal_capacity events, oldest first, however many evict/restore
// cycles it went through. Each cycle's live journal is the reference for
// the events that cycle added.
TEST(Eviction, CarriedJournalKeepsTheNewestEvents) {
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kCycles = 20;
  constexpr std::size_t kRows = 500;
  const StreamData data = make_drift_stream(1200, 2 * kRows);
  PipelineConfig config = make_config();
  config.recovery = RecoveryPolicy::kDetectOnly;
  config.obs.journal_capacity = kCapacity;
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);

  std::vector<edgedrift::obs::DriftEvent> expected;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    for (std::size_t i = kRows; i < 2 * kRows; ++i) {  // Post-drift rows.
      manager.submit(0, data.test.x.row(i));
    }
    manager.drain();
    manager.take_steps(0);
    const auto live = manager.stream(0).obs().snapshot(0).journal;
    expected.insert(expected.end(), live.begin(), live.end());
    if (expected.size() > kCapacity) {
      expected.erase(expected.begin(), expected.end() - kCapacity);
    }
    ASSERT_TRUE(manager.evict(0));
    const auto journal = manager.stats().streams[0].journal;
    ASSERT_EQ(journal.size(), expected.size());
    for (std::size_t k = 0; k < journal.size(); ++k) {
      EXPECT_EQ(journal[k].sample_index, expected[k].sample_index);
      EXPECT_EQ(journal[k].statistic, expected[k].statistic);
    }
  }
  EXPECT_GT(manager.stats(0).drifts, kCycles * kCapacity);
}

// With a hot budget under manual dispatch the resident set must be exactly
// the budget's worth of most-recently-drained streams — the LRU property,
// checked against a model of the expected recency order at every step.
TEST(Eviction, HotSetTracksLruOrderUnderBudget) {
  constexpr std::size_t kStreams = 5;
  constexpr std::size_t kBudget = 2;
  const StreamData data = make_drift_stream(400, 300);

  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  options.hot_stream_budget = kBudget;

  PipelineManager manager(make_config(), kStreams, options);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data.train.x, data.train.labels);
  }

  // A deterministic pseudo-random stream schedule; the model below tracks
  // most-recently-used order by hand.
  Rng rng(9);
  std::vector<std::size_t> recency;  // Front = most recent.
  std::size_t row = 0;
  for (std::size_t step = 0; step < 200; ++step) {
    const std::size_t s =
        static_cast<std::size_t>(rng.uniform() * kStreams) % kStreams;
    ASSERT_TRUE(manager.submit(s, data.test.x.row(row)));
    row = (row + 1) % data.test.size();
    manager.poll(s);

    auto it = std::find(recency.begin(), recency.end(), s);
    if (it != recency.end()) recency.erase(it);
    recency.insert(recency.begin(), s);

    EXPECT_LE(manager.hot_streams(), kBudget);
    for (std::size_t r = 0; r < recency.size(); ++r) {
      SCOPED_TRACE("step " + std::to_string(step) + " recency rank " +
                   std::to_string(r));
      EXPECT_EQ(manager.resident(recency[r]), r < kBudget);
    }
  }
  EXPECT_EQ(manager.hot_streams() + manager.cold_streams(), kStreams);
}

// evict() refuses streams that are not evictable: unknown ids, already-cold
// streams, and unfitted pipelines (nothing serializable yet).
TEST(Eviction, EvictRefusesIneligibleStreams) {
  const StreamData data = make_drift_stream(500, 200);
  PipelineManager manager(make_config(), 2);
  manager.fit(0, data.train.x, data.train.labels);
  // Stream 1 stays unfitted.

  EXPECT_FALSE(manager.evict(99));  // Unknown id.
  EXPECT_FALSE(manager.evict(1));   // Unfitted — nothing to serialize.
  EXPECT_TRUE(manager.resident(1));

  ASSERT_TRUE(manager.evict(0));
  EXPECT_FALSE(manager.evict(0));  // Already cold.
  EXPECT_FALSE(manager.resident(0));
}

// Cold blobs spill to disk when a spill dir is configured; a truncated
// spill file must surface SubmitStatus::kRestoreFailed on the next submit
// instead of crashing, and the stream must stay addressable (cold).
TEST(Eviction, CorruptSpillFileReportsRestoreFailed) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "edgedrift-eviction-spill";
  fs::create_directories(dir);

  const StreamData data = make_drift_stream(600, 200);
  ManagerOptions options;
  options.cold_spill_dir = dir.string();

  PipelineManager manager(make_config(), 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  for (std::size_t i = 0; i < 50; ++i) manager.submit(0, data.test.x.row(i));
  manager.drain();
  ASSERT_TRUE(manager.evict(0));

  const fs::path blob = dir / "edgedrift-stream-0.ckpt";
  ASSERT_TRUE(fs::exists(blob)) << "eviction must have spilled to disk";
  ASSERT_GT(fs::file_size(blob), 64u);
  fs::resize_file(blob, fs::file_size(blob) / 2);  // Truncate: corrupt.

  SubmitStatus status = SubmitStatus::kOk;
  EXPECT_FALSE(manager.submit(0, data.test.x.row(50), -1, &status));
  EXPECT_EQ(status, SubmitStatus::kRestoreFailed);
  EXPECT_FALSE(manager.resident(0));

  const edgedrift::obs::Snapshot snap = manager.stats();
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_GE(snap.shards[0].restore_failures, 1u);
  fs::remove_all(dir);
}

// seed_cold_from registers a large population cold from one serialized
// template; any seeded id becomes an independent resident pipeline on its
// first submit.
TEST(Eviction, SeedColdFromRegistersPopulationCold) {
  const StreamData data = make_drift_stream(700, 200);
  ManagerOptions options;
  options.hot_stream_budget = 4;
  PipelineManager manager(make_config(), 1, options);
  manager.fit(0, data.train.x, data.train.labels);

  const std::size_t first = manager.seed_cold_from(0, 500);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(manager.num_streams(), 501u);
  EXPECT_EQ(manager.hot_streams(), 1u);
  EXPECT_EQ(manager.cold_streams(), 500u);

  // Touch a handful of seeded streams: each restores from the template and
  // processes on its own.
  for (std::size_t id : {first, first + 123, first + 499}) {
    SubmitStatus status = SubmitStatus::kOk;
    ASSERT_TRUE(manager.submit(id, data.test.x.row(0), -1, &status));
    EXPECT_EQ(status, SubmitStatus::kOk);
  }
  manager.drain();
  for (std::size_t id : {first, first + 123, first + 499}) {
    EXPECT_EQ(manager.stats(id).samples, 1u);
  }
  // The budget kept the hot set bounded despite the restores.
  EXPECT_LE(manager.hot_streams(), options.hot_stream_budget);
  EXPECT_EQ(manager.hot_streams() + manager.cold_streams(), 501u);
}

// The race surface of the eviction layer: concurrent producers, a stats()
// poller, and an evictor hammering the same small hot budget. Run under
// TSan in CI; the invariant checked here is only that no sample is lost.
TEST(Eviction, EvictionRacesSubmitAndStats) {
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kPerStream = 300;
  const StreamData data = make_drift_stream(800, 400);

  ManagerOptions options;
  options.shards = 2;
  options.hot_stream_budget = 1;
  options.queue_capacity = 32;

  PipelineManager manager(make_config(), kStreams, options);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data.train.x, data.train.labels);
  }

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const edgedrift::obs::Snapshot snap = manager.stats();
      ASSERT_EQ(snap.shards.size(), 2u);
      (void)manager.hot_streams();
    }
  });
  std::thread evictor([&] {
    std::size_t id = 0;
    while (!stop.load()) {
      (void)manager.evict(id);
      id = (id + 1) % kStreams;
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerStream; ++i) {
        for (std::size_t s = t; s < kStreams; s += 2) {
          ASSERT_TRUE(manager.submit(s, data.test.x.row(i % 400)));
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  stop.store(true);
  poller.join();
  evictor.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(manager.stats(s).samples, kPerStream) << "stream " << s;
  }
  EXPECT_EQ(manager.stats().totals().samples, kStreams * kPerStream);
}

// ------------------------------------------------ template model sharing

/// The blob seed_cold_from serializes from `manager`'s stream `id`.
std::string template_blob(PipelineManager& manager, std::size_t id) {
  std::string blob;
  EXPECT_TRUE(edgedrift::io::save_pipeline(blob, manager.stream(id)));
  return blob;
}

/// A lone pipeline restored from `blob` without a template: the reference
/// a seeded stream must step exactly like.
Pipeline lone_restore(const std::string& blob, const PipelineConfig& config) {
  std::optional<Pipeline> pipeline =
      edgedrift::io::load_pipeline(blob, config.numerics, nullptr, &config);
  EXPECT_TRUE(pipeline.has_value());
  return std::move(*pipeline);
}

/// Feeds `rows` to stream `id` of a kManual `manager`, one row per drain,
/// and evicts the stream before every row at which it is resident, idle
/// and its window is open. Returns the steps; `cold_sizes` receives the
/// shard's cold-store bytes after each eviction (the evicted blob's size,
/// when no other stream of the shard is cold).
std::vector<PipelineStep> run_evicting_mid_window(
    PipelineManager& manager, std::size_t id, const Matrix& rows,
    std::vector<std::size_t>& cold_sizes) {
  const std::size_t shard = manager.shard_of(id);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    if (manager.resident(id) && !manager.stream(id).recovering() &&
        manager.stream(id).centroid_detector()->window_open()) {
      EXPECT_TRUE(manager.evict(id)) << "eviction refused at row " << i;
      cold_sizes.push_back(manager.stats().shards[shard].cold_bytes);
    }
    EXPECT_TRUE(manager.submit(id, rows.row(i)));
    manager.drain();
  }
  return manager.take_steps(id);
}

// The same through PipelineManager::evict(), for a seeded stream: it is
// evicted as a template delta while it shares the template's model, and
// as a full blob once its recovery has copied the model.
TEST(Eviction, SeededStreamEvictedMidWindowStepsUninterrupted) {
  const StreamData data = make_drift_stream(100, 1000);
  const PipelineConfig config = make_config();
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  Pipeline reference = lone_restore(template_blob(manager, 0), config);
  const std::size_t seeded = manager.seed_cold_from(0, 1);

  std::vector<PipelineStep> expected;
  reference.process_rows(data.test.x, {}, expected);
  std::vector<std::size_t> cold_sizes;
  const std::vector<PipelineStep> actual =
      run_evicting_mid_window(manager, seeded, data.test.x, cold_sizes);
  ASSERT_GT(cold_sizes.size(), 100u);
  expect_steps_equal(actual, expected);
  EXPECT_GE(manager.stats(seeded).drifts, 1u);
  // Deltas before the drift (a tenth of the full blob or less), full blobs
  // after the recovery.
  const auto [smallest, largest] =
      std::minmax_element(cold_sizes.begin(), cold_sizes.end());
  EXPECT_LT(*smallest * 8, *largest);
  EXPECT_EQ(*largest, cold_sizes.back());
}

// The same for a stream with a private model: every eviction is a full
// blob.
TEST(Eviction, PrivateStreamEvictedMidWindowStepsUninterrupted) {
  const StreamData data = make_drift_stream(100, 1000);
  const PipelineConfig config = make_config();
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  Pipeline reference(config);
  reference.fit(data.train.x, data.train.labels);

  std::vector<PipelineStep> expected;
  reference.process_rows(data.test.x, {}, expected);
  std::vector<std::size_t> cold_sizes;
  const std::vector<PipelineStep> actual =
      run_evicting_mid_window(manager, 0, data.test.x, cold_sizes);
  ASSERT_GT(cold_sizes.size(), 100u);
  expect_steps_equal(actual, expected);
  EXPECT_GE(manager.stats(0).drifts, 1u);
  EXPECT_EQ(*std::min_element(cold_sizes.begin(), cold_sizes.end()),
            *std::max_element(cold_sizes.begin(), cold_sizes.end()));
}

/// Row-block submits and drains for a set of streams, against one lone
/// reference each fed the same blocks.
struct SharedStreams {
  std::vector<std::size_t> ids;
  std::vector<Matrix> rows;
  std::vector<Pipeline> refs;
  std::vector<std::vector<PipelineStep>> expected, actual;

  void submit(PipelineManager& manager, std::size_t k, std::size_t at,
              std::size_t n) {
    const edgedrift::linalg::ConstMatrixView block{rows[k], at, at + n};
    ASSERT_EQ(manager.submit_batch(ids[k], block), n);
    refs[k].process_rows(block, {}, expected[k]);
  }
  void collect(PipelineManager& manager) {
    for (std::size_t k = 0; k < ids.size(); ++k) {
      manager.take_steps(ids[k], actual[k]);
    }
  }
};

SharedStreams seeded_streams(std::size_t first, std::size_t count,
                             const std::string& blob,
                             const PipelineConfig& config,
                             std::size_t rows_each, std::uint64_t seed) {
  SharedStreams st;
  Rng rng(seed);
  for (std::size_t k = 0; k < count; ++k) {
    st.ids.push_back(first + k);
    st.rows.push_back(edgedrift::data::draw(pre_concept(), rows_each, rng).x);
    st.refs.push_back(lone_restore(blob, config));
  }
  st.expected.resize(count);
  st.actual.resize(count);
  return st;
}

/// Seeded streams that have each been touched once all score against one
/// model (not the source stream's), and step exactly like lone pipelines
/// restored from the template without sharing: bit for bit at f64, by
/// decision at i8.
void check_seeded_streams_share(NumericsTier tier) {
  constexpr std::size_t kSeeded = 5;
  constexpr std::size_t kRows = 240;
  PipelineConfig config = make_config();
  config.numerics = tier;
  config.recovery = RecoveryPolicy::kDetectOnly;
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  const StreamData data = make_drift_stream(1100, 200);
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  const std::string blob = template_blob(manager, 0);
  const std::size_t first = manager.seed_cold_from(0, kSeeded);
  SharedStreams st =
      seeded_streams(first, kSeeded, blob, config, kRows, 1101);

  for (std::size_t at = 0; at < kRows; at += 4) {
    // Blocks of 1 to 4 rows, so that the drains score blocks of each size.
    for (std::size_t k = 0; k < kSeeded; ++k) {
      st.submit(manager, k, at, 1 + (at / 4 + k) % 4);
    }
    manager.drain();
    st.collect(manager);
    const auto& shared = manager.stream(first).model();
    EXPECT_NE(&shared, &manager.stream(0).model());
    for (std::size_t k = 1; k < kSeeded; ++k) {
      ASSERT_EQ(&manager.stream(first + k).model(), &shared)
          << "seeded stream " << first + k << " has its own model";
    }
  }
  for (std::size_t k = 0; k < kSeeded; ++k) {
    SCOPED_TRACE("seeded stream " + std::to_string(first + k));
    if (tier == NumericsTier::kExactF64) {
      expect_steps_equal(st.actual[k], st.expected[k]);
      continue;
    }
    const DecisionTrace a = trace_of(st.actual[k]);
    const DecisionTrace e = trace_of(st.expected[k]);
    EXPECT_EQ(a.labels, e.labels);
    EXPECT_EQ(a.drift_positions, e.drift_positions);
  }
}

TEST(Eviction, SeededStreamsShareOneTemplateModelAtF64) {
  check_seeded_streams_share(NumericsTier::kExactF64);
}

TEST(Eviction, SeededStreamsShareOneTemplateModelAtI8) {
  check_seeded_streams_share(NumericsTier::kQuantI8);
}

// Under kReconstruct, one seeded stream drifts. It copies the template's
// model at detection and steps bit for bit like its lone reference
// through the whole recovery, although each drain hands it 8-row blocks;
// the other streams keep sharing and scoring exactly. After evict and
// restore the drifted stream loads its own model and still matches.
TEST(Eviction, DriftedSeededStreamCopiesTheTemplateModel) {
  constexpr std::size_t kSeeded = 3;
  constexpr std::size_t kBlock = 8;
  const PipelineConfig config = make_config();
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  const StreamData data = make_drift_stream(1200);
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  const std::string blob = template_blob(manager, 0);
  const std::size_t first = manager.seed_cold_from(0, kSeeded);
  SharedStreams st =
      seeded_streams(first, kSeeded, blob, config, data.test.size(), 1201);
  st.rows[0] = data.test.x;  // Stream `first` drifts; the others do not.

  std::size_t copied_at = 0;
  bool evicted = false;
  for (std::size_t at = 0; at + kBlock <= data.test.size(); at += kBlock) {
    for (std::size_t k = 0; k < kSeeded; ++k) st.submit(manager, k, at, kBlock);
    manager.drain();
    st.collect(manager);
    const auto* drifted = &manager.stream(first).model();
    const auto* quiet = &manager.stream(first + 1).model();
    EXPECT_EQ(&manager.stream(first + 2).model(), quiet)
        << "the quiet streams stopped sharing at row " << at;
    const bool detected = std::any_of(
        st.actual[0].begin(), st.actual[0].end(),
        [](const PipelineStep& step) { return step.drift_detected; });
    if (!detected) {
      EXPECT_EQ(drifted, quiet) << "copied before the first detection";
    } else if (copied_at == 0) {
      EXPECT_NE(drifted, quiet) << "detection did not copy the model";
      copied_at = at;
    }
    // Evict once the first recovery has finished.
    if (!evicted && manager.stats(first).recoveries > 0 &&
        !manager.stream(first).recovering()) {
      ASSERT_TRUE(manager.evict(first));
      evicted = true;
    } else if (evicted) {
      EXPECT_NE(&manager.stream(first).model(), quiet)
          << "the drifted stream's restore shares the template";
    }
  }
  ASSERT_GT(copied_at, 0u) << "the drift must be detected";
  ASSERT_TRUE(evicted) << "the recovery must finish before the stream ends";
  for (std::size_t k = 0; k < kSeeded; ++k) {
    SCOPED_TRACE("seeded stream " + std::to_string(first + k));
    expect_steps_equal(st.actual[k], st.expected[k]);
  }
}

// kShard dispatch with 2 shards and a hot budget of 2 per shard: seeded
// streams on both workers share one model while one of them drifts and
// evictions churn, and every stream steps bit for bit like its reference.
// Every seeded stream is served, so both shards serve more streams than
// their budget, the drifting stream's shard included: its evictions may
// come mid-window and mid-drift.
TEST(Eviction, ShardWorkersShareOneTemplateModelUnderChurn) {
  constexpr std::size_t kSeeded = 10;
  constexpr std::size_t kRounds = 250;
  constexpr std::size_t kBlock = 4;
  const PipelineConfig config = make_config();
  ManagerOptions options;
  options.shards = 2;
  options.hot_stream_budget = 2;
  const StreamData data = make_drift_stream(1300, kRounds * kBlock);
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  const std::string blob = template_blob(manager, 0);
  const std::size_t first = manager.seed_cold_from(0, kSeeded);
  SharedStreams st =
      seeded_streams(first, kSeeded, blob, config, 2 * kRounds * kBlock, 1301);
  st.rows[0] = data.test.x;  // Stream `first` drifts; the others do not.

  // One quiet probe per shard is touched last before each check, so each
  // is its shard's most recent, resident stream.
  const std::size_t drift_shard = manager.shard_of(first);
  std::vector<std::size_t> active = {0};
  std::size_t drift_probe = 0;
  std::size_t quiet_probe = 0;
  std::size_t on_drift_shard = 1;
  for (std::size_t k = 1; k < kSeeded; ++k) {
    active.push_back(k);
    if (manager.shard_of(first + k) == drift_shard) {
      ++on_drift_shard;
      if (drift_probe == 0) drift_probe = k;
    } else if (quiet_probe == 0) {
      quiet_probe = k;
    }
  }
  ASSERT_NE(drift_probe, 0u);
  ASSERT_NE(quiet_probe, 0u);
  ASSERT_GT(on_drift_shard, options.hot_stream_budget)
      << "the drifting stream's shard must exceed its budget";
  ASSERT_GT(kSeeded - on_drift_shard, options.hot_stream_budget)
      << "the quiet shard must exceed its budget";
  const std::size_t probes[] = {drift_probe, quiet_probe};

  std::vector<std::size_t> cursor(kSeeded, 0);
  const auto feed = [&](std::size_t k) {
    st.submit(manager, k, cursor[k], kBlock);
    cursor[k] += kBlock;
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (const std::size_t k : active) feed(k);
    if (round % 25 != 24) continue;
    manager.drain();
    for (const std::size_t k : probes) feed(k);
    manager.drain();
    st.collect(manager);
    const auto* shared = &manager.stream(first + drift_probe).model();
    for (const std::size_t k : probes) {
      ASSERT_TRUE(manager.resident(first + k));
      EXPECT_EQ(&manager.stream(first + k).model(), shared)
          << "probe " << first + k << " after round " << round;
    }
    for (const std::size_t k : active) {
      if (k == 0 || !manager.resident(first + k)) continue;
      EXPECT_EQ(&manager.stream(first + k).model(), shared)
          << "seeded stream " << first + k << " after round " << round;
    }
  }
  manager.drain();
  st.collect(manager);
  EXPECT_GE(manager.stats(first).drifts, 1u) << "stream " << first;
  for (const std::size_t k : active) {
    SCOPED_TRACE("seeded stream " + std::to_string(first + k));
    expect_steps_equal(st.actual[k], st.expected[k]);
  }
  const edgedrift::obs::Snapshot snap = manager.stats();
  for (const auto& shard : snap.shards) {
    EXPECT_GT(shard.evictions, 10u) << "shard " << shard.shard_id;
  }
}

// hot_bytes charges a stream on its template's model only its own bytes,
// and charges the model once the stream has written a private copy. Rings
// are charged as the ring pages their shard's pool holds.
TEST(Eviction, HotBytesChargeTheTemplateModelOnlyOnceCopied) {
  PipelineConfig config = make_config();
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  const StreamData data = make_drift_stream(1400);
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  const std::size_t first = manager.seed_cold_from(0, 2);
  const auto hot_bytes = [&] { return manager.stats().shards[0].hot_bytes; };
  // A ring page: 64 rows, each with its label and submit stamp.
  const std::size_t page =
      64 * (config.input_dim * sizeof(double) + sizeof(int) +
            sizeof(std::uint64_t));

  // Restores onto the template: each stream adds its detector and recovery
  // bookkeeping, not the model, and its first row maps a new page.
  std::size_t before = hot_bytes();
  ASSERT_TRUE(manager.submit(first, data.test.x.row(0)));
  ASSERT_TRUE(manager.submit(first + 1, data.test.x.row(0)));
  manager.drain();
  const Pipeline& drifting = manager.stream(first);
  ASSERT_EQ(&drifting.model(), &manager.stream(first + 1).model());
  const std::size_t own = drifting.detector_memory_bytes();
  ASSERT_LT(own, drifting.memory_bytes());
  EXPECT_EQ(hot_bytes() - before, 2 * (own + page));

  // The drift's detection copies the model; the drain's bookkeeping then
  // charges the copy (memory_bytes() always counts the whole model). The
  // stream's 1-row ticks recycle its page: the pool does not grow.
  before = hot_bytes();
  std::size_t row = 1;
  while (!manager.stream(first).recovering() && row < data.test.size()) {
    ASSERT_TRUE(manager.submit(first, data.test.x.row(row++)));
    manager.drain();
  }
  ASSERT_TRUE(manager.stream(first).recovering()) << "no drift detected";
  EXPECT_NE(&manager.stream(first).model(), &manager.stream(first + 1).model());
  EXPECT_EQ(hot_bytes(), before - own + manager.stream(first).memory_bytes());

  // Finish the recovery, evict, and restore: the stream's own model is
  // charged in full, and its row maps the page the eviction gave back.
  while (manager.stream(first).recovering() && row < data.test.size()) {
    ASSERT_TRUE(manager.submit(first, data.test.x.row(row++)));
    manager.drain();
  }
  ASSERT_FALSE(manager.stream(first).recovering());
  ASSERT_TRUE(manager.evict(first));
  before = hot_bytes();
  ASSERT_TRUE(manager.submit(first, data.test.x.row(row)));
  manager.drain();
  EXPECT_EQ(hot_bytes() - before, manager.stream(first).memory_bytes());
}

// ------------------------------------------------ kManual drain listing

// A cold-churn round under kManual dispatch: each drain visits only the
// streams listed on their shard's ready stack since the last one, a few of
// thousands registered, while every restore evicts another stream to stay
// within the hot budget. Every row must drain exactly once, and every
// touched stream step bit for bit like a lone restore of the template.
TEST(Eviction, ManualDrainVisitsListedStreamsUnderColdChurn) {
  constexpr std::size_t kSeeded = 4000;
  constexpr std::size_t kRounds = 60;
  constexpr std::size_t kTouched = 8;
  constexpr std::size_t kBlock = 16;
  PipelineConfig config = make_config();
  config.recovery = RecoveryPolicy::kDetectOnly;
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  options.shards = 2;
  options.hot_stream_budget = 4;
  const StreamData data = make_drift_stream(1500, 200);
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  const std::string blob = template_blob(manager, 0);
  const std::size_t first = manager.seed_cold_from(0, kSeeded);

  std::unordered_map<std::size_t, Pipeline> refs;
  std::unordered_map<std::size_t, std::vector<PipelineStep>> expected;
  std::unordered_map<std::size_t, std::vector<PipelineStep>> actual;
  Rng rng(1501);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t t = 0; t < kTouched; ++t) {
      // Ids may repeat within a round: the second block finds its stream
      // listed already.
      const std::size_t id =
          first + static_cast<std::size_t>(rng.uniform() * kSeeded) % kSeeded;
      const Matrix block = edgedrift::data::draw(pre_concept(), kBlock, rng).x;
      ASSERT_EQ(manager.submit_batch(id, block), kBlock);
      auto ref = refs.find(id);
      if (ref == refs.end()) {
        ref = refs.emplace(id, lone_restore(blob, config)).first;
      }
      ref->second.process_rows(block, {}, expected[id]);
    }
    manager.drain();
    EXPECT_LE(manager.hot_streams(),
              options.shards * options.hot_stream_budget);
    for (std::size_t id = 0; id < manager.num_streams(); ++id) {
      ASSERT_EQ(manager.telemetry(id).processed,
                manager.telemetry(id).submitted)
          << "stream " << id << " after round " << round;
    }
    for (const auto& entry : refs) {
      manager.take_steps(entry.first, actual[entry.first]);
    }
  }
  ASSERT_GT(refs.size(), kRounds * kTouched / 2);
  for (const auto& [id, steps] : expected) {
    SCOPED_TRACE("seeded stream " + std::to_string(id));
    expect_steps_equal(actual[id], steps);
  }
  const edgedrift::obs::Snapshot snap = manager.stats();
  for (const auto& shard : snap.shards) {
    EXPECT_GT(shard.evictions, 100u) << "shard " << shard.shard_id;
    EXPECT_GT(shard.coalesced_gemms, 0u) << "shard " << shard.shard_id;
  }
}

// Two listed streams whose rows are gone before drain() takes their shard's
// ready stack: one emptied by poll(id), one emptied by poll(id) and then
// pushed cold by evict(id). The drain skips both: no row is processed
// twice, the evicted stream stays cold until its next submit, and every
// stream's steps are complete.
TEST(Eviction, ManualDrainSkipsListedStreamsPolledOrEvicted) {
  constexpr std::size_t kSeeded = 6;
  constexpr std::size_t kRounds = 4;
  constexpr std::size_t kBlock = 12;
  PipelineConfig config = make_config();
  config.recovery = RecoveryPolicy::kDetectOnly;
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  options.shards = 2;
  const StreamData data = make_drift_stream(1600, 200);
  PipelineManager manager(config, 1, options);
  manager.fit(0, data.train.x, data.train.labels);
  const std::string blob = template_blob(manager, 0);
  const std::size_t first = manager.seed_cold_from(0, kSeeded);
  SharedStreams st =
      seeded_streams(first, kSeeded, blob, config, kRounds * kBlock, 1601);
  const std::size_t polled = first;
  const std::size_t evicted = first + 1;

  for (std::size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (std::size_t k = 0; k < kSeeded; ++k) {
      st.submit(manager, k, round * kBlock, kBlock);
    }
    manager.poll(polled);
    manager.poll(evicted);
    ASSERT_TRUE(manager.evict(evicted));
    manager.drain();
    EXPECT_TRUE(manager.resident(polled));
    EXPECT_FALSE(manager.resident(evicted));
    for (std::size_t k = 0; k < kSeeded; ++k) {
      EXPECT_EQ(manager.telemetry(first + k).processed, (round + 1) * kBlock)
          << "seeded stream " << first + k;
    }
    st.collect(manager);
  }
  for (std::size_t k = 0; k < kSeeded; ++k) {
    SCOPED_TRACE("seeded stream " + std::to_string(first + k));
    expect_steps_equal(st.actual[k], st.expected[k]);
  }
}

}  // namespace
