// The observability layer's contracts, pinned:
//
//  - LatencyHistogram properties: log2 bucket bounds contain every value,
//    counts and sums are conserved, and adding two snapshots (the merge the
//    eviction carry uses) is exactly recording every value into one
//    histogram.
//  - DriftJournal: fixed-capacity wraparound keeps the most recent events
//    oldest-first, completion updates the last-begun record, and the
//    lifetime counter survives overwrites.
//  - Bit-identity: a pipeline with obs recording enabled produces the
//    exact same prediction/drift trajectory as its obs-disabled twin on
//    the label-rich C=23 configuration — instrumentation observes, never
//    participates. Both twins count the same run; only the enabled one
//    times and journals it.
//  - Concurrency: PipelineManager::stats() snapshots stay coherent while
//    producers and drains are live across >= 4 streams, both resident
//    streams drained by the shard worker and a seed_cold_from group whose
//    kManual drains coalesce every round (the CI TSan job runs this file;
//    see .github/workflows/ci.yml). The counters count in every build, so
//    this runs under EDGEDRIFT_NO_OBS too.
//  - Exporters: the edgedrift-obs-v3 JSON carries every counter of every
//    stream by name with the value stats(id) returns, across an
//    evict/restore cycle, and the text table's total row is
//    stats().totals().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/stream.hpp"
#include "edgedrift/obs/drift_journal.hpp"
#include "edgedrift/obs/latency_histogram.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using namespace edgedrift;
using obs::DriftEvent;
using obs::DriftJournal;
using obs::HistogramSnapshot;
using obs::LatencyHistogram;
using obs::RecoveryAction;

// ---------------------------------------------------------------- histogram

TEST(ObsHistogram, BucketBoundsContainEveryValue) {
  // Pure static functions — valid even under EDGEDRIFT_NO_OBS.
  for (std::size_t b = 0; b + 1 < LatencyHistogram::kBuckets; ++b) {
    EXPECT_LE(LatencyHistogram::bucket_lower_ns(b),
              LatencyHistogram::bucket_upper_ns(b));
    EXPECT_LE(LatencyHistogram::bucket_lower_ns(b),
              LatencyHistogram::bucket_lower_ns(b + 1));
    EXPECT_LT(LatencyHistogram::bucket_upper_ns(b),
              LatencyHistogram::bucket_upper_ns(b + 1))
        << "buckets must partition the range in order";
  }
  // Containment at the edges of every power of two, plus random draws.
  std::vector<std::uint64_t> values = {0, 1, 2};
  for (std::size_t p = 1; p < 63; ++p) {
    const std::uint64_t v = std::uint64_t{1} << p;
    values.push_back(v - 1);
    values.push_back(v);
    values.push_back(v + 1);
  }
  util::Rng rng(101);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<std::uint64_t>(
        rng.uniform(0.0, 4.0e9)));
  }
  for (const std::uint64_t v : values) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    EXPECT_LE(LatencyHistogram::bucket_lower_ns(b), v) << "value " << v;
    EXPECT_GE(LatencyHistogram::bucket_upper_ns(b), v) << "value " << v;
  }
}

TEST(ObsHistogram, CountAndSumAreConserved) {
  if (!obs::kObsCompiled) GTEST_SKIP() << "built with EDGEDRIFT_NO_OBS";
  util::Rng rng(7);
  LatencyHistogram h;
  std::uint64_t expected_sum = 0;
  std::uint64_t expected_max = 0;
  constexpr std::size_t kN = 5000;
  for (std::size_t i = 0; i < kN; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform(0.0, 1.0e7));
    h.record(v);
    expected_sum += v;
    expected_max = std::max(expected_max, v);
  }
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), kN);
  EXPECT_EQ(s.sum_ns, expected_sum);
  EXPECT_EQ(s.max_ns, expected_max);
  EXPECT_NEAR(s.mean_ns(),
              static_cast<double>(expected_sum) / static_cast<double>(kN),
              1e-9);
  // The quantile upper bound brackets the true extremes.
  EXPECT_GE(s.quantile_upper_ns(1.0), expected_max);
  double prev_q = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const auto bound = static_cast<double>(s.quantile_upper_ns(q));
    EXPECT_GE(bound, prev_q) << "quantile bound must be monotone in q";
    prev_q = bound;
  }
}

TEST(ObsHistogram, MergeEqualsRecordingAll) {
  if (!obs::kObsCompiled) GTEST_SKIP() << "built with EDGEDRIFT_NO_OBS";
  util::Rng rng(23);
  for (int round = 0; round < 20; ++round) {
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram all;
    const int na = static_cast<int>(rng.uniform(0.0, 400.0));
    const int nb = static_cast<int>(rng.uniform(0.0, 400.0));
    for (int i = 0; i < na; ++i) {
      const auto v = static_cast<std::uint64_t>(rng.uniform(0.0, 1.0e9));
      a.record(v);
      all.record(v);
    }
    for (int i = 0; i < nb; ++i) {
      const auto v = static_cast<std::uint64_t>(rng.uniform(0.0, 1.0e9));
      b.record(v);
      all.record(v);
    }
    HistogramSnapshot merged = a.snapshot();
    merged += b.snapshot();
    const HistogramSnapshot direct = all.snapshot();
    EXPECT_EQ(merged.buckets, direct.buckets);
    EXPECT_EQ(merged.sum_ns, direct.sum_ns);
    EXPECT_EQ(merged.max_ns, direct.max_ns);

    // Adding to an empty snapshot is the identity.
    HistogramSnapshot sum;
    sum += direct;
    EXPECT_EQ(sum.buckets, direct.buckets);
  }
}

// ------------------------------------------------------------------ journal

TEST(ObsJournal, WraparoundKeepsMostRecentOldestFirst) {
  if (!obs::kObsCompiled) GTEST_SKIP() << "built with EDGEDRIFT_NO_OBS";
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kLabels = 3;
  constexpr std::uint64_t kEvents = 20;
  DriftJournal journal(kCapacity, kLabels);
  std::vector<double> dist(kLabels);
  for (std::uint64_t e = 0; e < kEvents; ++e) {
    for (std::size_t c = 0; c < kLabels; ++c) {
      dist[c] = static_cast<double>(e) + 0.25 * static_cast<double>(c);
    }
    journal.begin_event(/*sample_index=*/e * 10,
                        /*statistic=*/static_cast<double>(e) * 0.5,
                        /*theta_drift=*/1.5, /*window_span=*/100,
                        e % 2 == 0 ? RecoveryAction::kReconstruct
                                   : RecoveryAction::kNone,
                        dist);
    if (e % 2 == 0) journal.complete_event(/*recovery_samples=*/e + 1);
  }
  EXPECT_EQ(journal.total_events(), kEvents);

  const std::vector<DriftEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t e = kEvents - kCapacity + i;  // Oldest first.
    const DriftEvent& ev = events[i];
    EXPECT_EQ(ev.sample_index, e * 10);
    EXPECT_DOUBLE_EQ(ev.statistic, static_cast<double>(e) * 0.5);
    EXPECT_DOUBLE_EQ(ev.theta_drift, 1.5);
    EXPECT_EQ(ev.window_span, 100u);
    EXPECT_EQ(ev.action, e % 2 == 0 ? RecoveryAction::kReconstruct
                                    : RecoveryAction::kNone);
    EXPECT_TRUE(ev.completed);  // Reconstructs completed, detect-only auto.
    EXPECT_EQ(ev.recovery_samples, e % 2 == 0 ? e + 1 : 0);
    ASSERT_EQ(ev.per_label_distance.size(), kLabels);
    for (std::size_t c = 0; c < kLabels; ++c) {
      EXPECT_DOUBLE_EQ(ev.per_label_distance[c],
                       static_cast<double>(e) +
                           0.25 * static_cast<double>(c));
    }
  }
}

TEST(ObsJournal, CompletionTargetsTheLastBegunEvent) {
  if (!obs::kObsCompiled) GTEST_SKIP() << "built with EDGEDRIFT_NO_OBS";
  DriftJournal journal(4, 2);
  journal.begin_event(5, 1.0, 2.0, 50, RecoveryAction::kReconstruct, {});
  {
    const std::vector<DriftEvent> events = journal.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_FALSE(events[0].completed);
    EXPECT_TRUE(events[0].per_label_distance.empty());
  }
  journal.begin_event(9, 1.5, 2.0, 50, RecoveryAction::kReconstruct, {});
  journal.complete_event(123);
  const std::vector<DriftEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].completed) << "older event must stay open";
  EXPECT_TRUE(events[1].completed);
  EXPECT_EQ(events[1].recovery_samples, 123u);

  journal.reset();
  EXPECT_EQ(journal.total_events(), 0u);
  EXPECT_TRUE(journal.snapshot().empty());
}

// ------------------------------------------------------------- bit identity

/// The C=23 label-rich configuration (the fused-GEMM hot path), with a
/// genuine mid-stream concept shift so the drift branch, the journal and
/// the full recovery run under both obs settings.
struct TwinData {
  data::Dataset train;
  data::Dataset stream;
  std::size_t dim = 0;
  std::size_t labels = 0;
};

TwinData make_c23_data() {
  constexpr std::size_t kDim = 38;
  constexpr std::size_t kLabels = 23;
  util::Rng mean_rng(77);
  std::vector<data::GaussianClass> pre(kLabels);
  for (auto& cls : pre) {
    cls.mean.resize(kDim);
    for (auto& m : cls.mean) m = mean_rng.uniform(-2.0, 2.0);
    cls.stddev = {0.35};
    cls.weight = 1.0;
  }
  std::vector<data::GaussianClass> post = pre;
  util::Rng shift_rng(78);
  for (auto& cls : post) {
    // Displace every class off the trained manifold.
    for (auto& m : cls.mean) m += shift_rng.uniform(1.2, 2.0);
  }

  TwinData d;
  d.dim = kDim;
  d.labels = kLabels;
  const data::GaussianConcept pre_concept(pre);
  const data::GaussianConcept post_concept(post);
  util::Rng train_rng(2027);
  d.train = data::draw(pre_concept, 2300, train_rng);
  util::Rng stream_rng(2028);
  const data::Dataset stationary = data::draw(pre_concept, 800, stream_rng);
  const data::Dataset shifted = data::draw(post_concept, 1500, stream_rng);
  d.stream.x = linalg::Matrix(stationary.size() + shifted.size(), kDim);
  for (std::size_t i = 0; i < stationary.size(); ++i) {
    d.stream.x.set_row(i, stationary.x.row(i));
    d.stream.labels.push_back(stationary.labels[i]);
  }
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    d.stream.x.set_row(stationary.size() + i, shifted.x.row(i));
    d.stream.labels.push_back(shifted.labels[i]);
  }
  return d;
}

TEST(ObsBitIdentity, TrajectoriesMatchWithObsOnAndOff) {
  const TwinData data = make_c23_data();

  core::PipelineConfig config;
  config.num_labels = data.labels;
  config.input_dim = data.dim;
  config.window_size = 100;
  config.seed = 9;

  core::PipelineConfig off_config = config;
  off_config.obs.enabled = false;

  core::Pipeline on(config);
  core::Pipeline off(off_config);
  on.fit(data.train.x, data.train.labels);
  off.fit(data.train.x, data.train.labels);
  ASSERT_EQ(on.theta_error(), off.theta_error());

  std::size_t drifts = 0;
  for (std::size_t i = 0; i < data.stream.size(); ++i) {
    const core::PipelineStep a =
        on.process(data.stream.x.row(i), data.stream.labels[i]);
    const core::PipelineStep b =
        off.process(data.stream.x.row(i), data.stream.labels[i]);
    ASSERT_EQ(a.prediction.label, b.prediction.label) << "sample " << i;
    ASSERT_EQ(a.prediction.score, b.prediction.score) << "sample " << i;
    ASSERT_EQ(a.drift_detected, b.drift_detected) << "sample " << i;
    ASSERT_EQ(a.statistic_valid, b.statistic_valid) << "sample " << i;
    ASSERT_EQ(a.statistic, b.statistic) << "sample " << i;
    ASSERT_EQ(a.reconstructing, b.reconstructing) << "sample " << i;
    ASSERT_EQ(a.reconstruction_finished, b.reconstruction_finished)
        << "sample " << i;
    drifts += a.drift_detected;
  }
  ASSERT_GE(drifts, 1u) << "the shifted stream must exercise the drift and "
                           "recovery instrumentation";

  // The counters always count: both twins booked the same run.
  const obs::StreamSnapshot recorded = on.obs().snapshot(0);
  const obs::StreamSnapshot frozen = off.obs().snapshot(0);
  for (const obs::StreamSnapshot* twin : {&recorded, &frozen}) {
    EXPECT_EQ(twin->counters.samples, data.stream.size());
    EXPECT_EQ(twin->counters.drifts, drifts);
  }
  // The disabled twin timed nothing and journaled nothing.
  EXPECT_EQ(frozen.score.count(), 0u);
  EXPECT_EQ(frozen.detect.count(), 0u);
  EXPECT_EQ(frozen.reconstruct.count(), 0u);
  EXPECT_EQ(off.obs().journal.total_events(), 0u);
  EXPECT_TRUE(frozen.journal.empty());
  if (obs::kObsCompiled) {
    // The enabled twin journaled every detection.
    EXPECT_EQ(on.obs().journal.total_events(), drifts);
  }
}

// -------------------------------------------------------------- concurrency

TEST(ObsConcurrency, StatsSnapshotsStayCoherentUnderLoad) {
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kBlockRows = 64;

  core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = kDim;
  config.hidden_dim = 12;
  // Stationary data, and any spurious detection only rearms the detector —
  // the trajectory stays on the hot path the whole test.
  config.recovery = core::RecoveryPolicy::kDetectOnly;

  util::Rng rng(31);
  linalg::Matrix train(240, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double mean = labels[i] == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      train(i, j) = rng.gaussian(mean, 0.2);
    }
  }

  linalg::Matrix block(kBlockRows, kDim);
  for (std::size_t i = 0; i < kBlockRows; ++i) {
    const double mean = i % 2 == 0 ? 0.2 : 1.2;
    for (std::size_t j = 0; j < kDim; ++j) {
      block(i, j) = rng.gaussian(mean, 0.2);
    }
  }

  // Two inputs. Resident: four streams with distinct projections, drained
  // by the shard worker, so none of them coalesces. Seeded: the same four
  // streams as one seed_cold_from group (behind their template, stream 0),
  // drained in kManual dispatch once per round, so every planning pass
  // coalesces them; a ring capacity that is no multiple of the block makes
  // the gathers cross the ring wrap.
  for (const bool seeded : {false, true}) {
    SCOPED_TRACE(seeded ? "seeded group, kManual" : "resident, kShard");
    core::ManagerOptions options;
    options.queue_capacity = seeded ? 200 : 256;
    if (seeded) options.dispatch = core::DispatchMode::kManual;

    core::PipelineManager manager(config, seeded ? 1 : kStreams, options);
    std::size_t first = 0;
    if (seeded) {
      manager.fit(0, train, labels);
      first = manager.seed_cold_from(0, kStreams);
    } else {
      for (std::size_t s = 0; s < kStreams; ++s) {
        manager.fit(s, train, labels);
      }
    }
    const std::size_t num_streams = manager.num_streams();

    // Readers race the producers and the drains. Coherence under the race:
    // the sample count and the ring high-water are monotone across
    // snapshots, and no stream ever counts more samples than the test
    // submits to it (a row counted twice would show here first).
    constexpr std::uint64_t kRowsPerStream = kRounds * kBlockRows;
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        std::vector<std::uint64_t> prev_samples(num_streams, 0);
        std::vector<std::uint64_t> prev_high_water(num_streams, 0);
        while (!stop.load(std::memory_order_relaxed)) {
          const obs::Snapshot snap = manager.stats();
          if (snap.streams.size() != num_streams) {
            failures.fetch_add(1);
            continue;
          }
          for (std::size_t s = 0; s < num_streams; ++s) {
            const obs::CounterSnapshot& c = snap.streams[s].counters;
            if (c.samples < prev_samples[s] ||
                c.ring_high_water < prev_high_water[s] ||
                c.samples > kRowsPerStream) {
              failures.fetch_add(1);
            }
            prev_samples[s] = c.samples;
            prev_high_water[s] = c.ring_high_water;
          }
          for (const obs::StreamSnapshot& s : snap.streams) {
            for (const DriftEvent& ev : s.journal) {
              if (ev.window_span != config.window_size ||
                  ev.action != RecoveryAction::kNone) {
                failures.fetch_add(1);
              }
            }
          }
        }
      });
    }

    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        manager.submit_batch(first + s, block);
      }
      if (seeded) manager.drain();
    }
    manager.drain();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(failures.load(), 0u);

    // Quiescent state: the books balance exactly.
    const obs::Snapshot final_snap = manager.stats();
    ASSERT_EQ(final_snap.streams.size(), num_streams);
    for (std::size_t s = first; s < num_streams; ++s) {
      const obs::CounterSnapshot& c = final_snap.streams[s].counters;
      EXPECT_EQ(c.samples, kRowsPerStream);
      EXPECT_EQ(c.rejected, 0u);  // kBlock backpressure never drops.
      EXPECT_LE(c.ring_high_water, options.queue_capacity);
      // submit->drain is sampled on absolute ring position: positions
      // 0..total-1 with (pos & mask) == 0, one per latency_sample_every.
      // Latency timing is what EDGEDRIFT_NO_OBS compiles out.
      if (obs::kObsCompiled) {
        EXPECT_EQ(final_snap.streams[s].submit_to_drain.count(),
                  kRowsPerStream / config.obs.latency_sample_every);
      }
    }
    const obs::CounterSnapshot totals = final_snap.totals();
    EXPECT_EQ(totals.samples, kStreams * kRowsPerStream);
    if (seeded) {
      std::uint64_t coalesced_gemms = 0;
      for (const obs::ShardSnapshot& sh : final_snap.shards) {
        coalesced_gemms += sh.coalesced_gemms;
      }
      EXPECT_GT(coalesced_gemms, 0u);
    }
  }
}

// ---------------------------------------------------------------- exporters

/// The 9 counters by the name the JSON export gives them, in the column
/// order of the text table.
const std::pair<const char*, std::uint64_t obs::CounterSnapshot::*>
    kCounterFields[] = {
        {"samples", &obs::CounterSnapshot::samples},
        {"drifts", &obs::CounterSnapshot::drifts},
        {"recoveries", &obs::CounterSnapshot::recoveries},
        {"recovery_samples", &obs::CounterSnapshot::recovery_samples},
        {"windows_opened", &obs::CounterSnapshot::windows_opened},
        {"batch_chunks", &obs::CounterSnapshot::batch_chunks},
        {"batch_rows", &obs::CounterSnapshot::batch_rows},
        {"rejected", &obs::CounterSnapshot::rejected},
        {"ring_high_water", &obs::CounterSnapshot::ring_high_water},
};

TEST(ObsExport, JsonAndTextCarryTheCounterBook) {
  data::GaussianClass a;
  a.mean.assign(8, 0.2);
  a.stddev = {0.15};
  data::GaussianClass b;
  b.mean.assign(8, 1.2);
  b.stddev = {0.15};
  const data::GaussianConcept pre({a, b});
  for (std::size_t j = 0; j < 8; j += 2) {
    a.mean[j] += 0.9;
    b.mean[j] += 0.55;
  }
  const data::GaussianConcept post({a, b});
  util::Rng rng(100);
  const data::Dataset train = data::draw(pre, 600, rng);
  const data::Dataset test =
      data::make_sudden_drift(pre, post, 1500, 750, rng);

  core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 8;
  config.hidden_dim = 12;
  config.window_size = 40;
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;
  core::ManagerOptions options;
  options.dispatch = core::DispatchMode::kManual;
  options.backpressure = core::BackpressurePolicy::kReject;
  options.queue_capacity = 64;
  core::PipelineManager manager(config, 2, options);
  constexpr std::size_t kBlock = 50;
  const auto feed = [&](std::size_t id, std::size_t from, std::size_t to) {
    for (std::size_t at = from; at < to; at += kBlock) {
      manager.submit_batch(id, {test.x, at, std::min(at + kBlock, to)});
      manager.drain();
    }
  };
  for (std::size_t id = 0; id < 2; ++id) manager.fit(id, train.x, train.labels);

  // Stream 0 is evicted before its drift and restored by the next submit,
  // so its book is carried + live; an oversized block then overflows its
  // ring under kReject.
  feed(0, 0, 600);
  ASSERT_TRUE(manager.evict(0));
  feed(0, 600, test.size());
  EXPECT_EQ(manager.submit_batch(0, {test.x, 0, 100}),
            options.queue_capacity);
  manager.drain();
  feed(1, 0, test.size());
  ASSERT_GT(manager.stats(0).drifts, 0u) << "stream 0 must drift";
  ASSERT_GT(manager.stats(0).rejected, 0u);

  const obs::Snapshot snap = manager.stats();
  const std::string json = snap.to_json("test_obs");
  EXPECT_NE(json.find("\"schema\": \"edgedrift-obs-v3\""), std::string::npos);
  for (std::size_t id = 0; id < 2; ++id) {
    SCOPED_TRACE("stream " + std::to_string(id));
    const std::size_t at = json.find("\"id\": " + std::to_string(id) +
                                     ",\n      \"counters\": {");
    ASSERT_NE(at, std::string::npos);
    const core::PipelineStats stats = manager.stats(id);
    for (const auto& [name, field] : kCounterFields) {
      const std::string key = "\"" + std::string(name) + "\": ";
      const std::size_t pos = json.find(key, at);
      ASSERT_NE(pos, std::string::npos) << name;
      EXPECT_EQ(std::stoull(json.substr(pos + key.size())), stats.*field)
          << name;
    }
  }

  // The text table's total row, cell by cell after the label.
  const std::string text = snap.to_text();
  const std::size_t row = text.find("| total ");
  ASSERT_NE(row, std::string::npos);
  std::istringstream cells(text.substr(row, text.find('\n', row) - row));
  std::string cell;
  std::getline(cells, cell, '|');  // Before the first bar.
  std::getline(cells, cell, '|');  // The "total" label.
  const core::PipelineStats totals = manager.stats().totals();
  for (const auto& [name, field] : kCounterFields) {
    ASSERT_TRUE(std::getline(cells, cell, '|')) << name;
    EXPECT_EQ(std::stoull(cell), totals.*field) << name;
  }
}

}  // namespace
