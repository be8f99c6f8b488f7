// The cross-stream drain planner (core/manager_coalesce.cpp): streams that
// share a projection group — equal alpha/bias fingerprint, dims, activation
// and numerics tier, i.e. every stream seeded from one template — drain
// through one shared mega-batch projection GEMM with per-stream scatter.
//
// Contracts under test:
//  - kExactF64: the coalesced drain is BIT-identical to the per-stream
//    drain (coalesce=false), including across mid-batch drift, recovery
//    handoff, and evict/restore churn interleaved with group formation.
//  - kFastF32 / kQuantI8: bit-identical to the per-stream drain at the
//    same tier, and decision-equivalent (same drift events within a small
//    detection shift, near-total label agreement).
//  - Streams with mismatched fingerprints (independent projections) fall
//    back to the per-stream path and are counted in ShardObs.
//  - submit_batch racing shard-worker coalesced drains loses no samples,
//    and racing a kManual drain() loop keeps every stream bit-identical
//    (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::DispatchMode;
using edgedrift::core::ManagerOptions;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
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

Dataset make_train() {
  Rng rng(77);
  return edgedrift::data::draw(pre_concept(), 600, rng);
}

/// Per-stream drifting test data: every stream sees its own draw of the
/// same sudden-drift scenario, so drift + recovery land mid-run for all.
std::vector<Dataset> make_tests(std::size_t n, std::size_t samples) {
  std::vector<Dataset> tests;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(900 + i);
    tests.push_back(edgedrift::data::make_sudden_drift(
        pre_concept(), post_concept(), samples, samples / 2, rng));
  }
  return tests;
}

/// Turns a one-stream manager into a shared projection group: stream 0 is
/// fitted, streams 1..n-1 are seeded cold from it and become independent
/// residents on first submit.
void seed_group(PipelineManager& manager, std::size_t n_streams,
                const Dataset& train) {
  manager.fit(0, train.x, train.labels);
  manager.seed_cold_from(0, n_streams - 1);
}

/// Drives `manager` through the per-stream datasets in interleaved rounds
/// of `burst` rows per stream, draining once per round so every round's
/// pending rows are visible to one planning pass together. Returns each
/// stream's full step sequence.
std::vector<std::vector<PipelineStep>> run_rounds(
    PipelineManager& manager, const std::vector<Dataset>& tests,
    std::size_t burst) {
  const std::size_t n = tests.size();
  const std::size_t samples = tests[0].size();
  for (std::size_t at = 0; at < samples; at += burst) {
    const std::size_t take = std::min(burst, samples - at);
    for (std::size_t s = 0; s < n; ++s) {
      Matrix rows(take, tests[s].x.cols());
      for (std::size_t r = 0; r < take; ++r) {
        rows.set_row(r, tests[s].x.row(at + r));
      }
      SubmitStatus status = SubmitStatus::kOk;
      EXPECT_EQ(manager.submit_batch(s, rows, {}, &status), take);
      EXPECT_EQ(status, SubmitStatus::kOk);
    }
    manager.drain();
  }
  std::vector<std::vector<PipelineStep>> steps(n);
  for (std::size_t s = 0; s < n; ++s) steps[s] = manager.take_steps(s);
  return steps;
}

void expect_steps_bit_identical(const std::vector<PipelineStep>& actual,
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

ManagerOptions manual_options(bool coalesce) {
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  options.coalesce = coalesce;
  return options;
}

// The tentpole contract at full precision: a seeded projection group
// drained through shared mega-batch GEMMs produces every step bit-for-bit
// equal to the per-stream drain — across the drift point and the recovery
// (reconstruction) handoff that puts streams in and out of eligibility
// mid-run.
TEST(CoalescedDrain, SharedGroupIsBitIdenticalAtF64) {
  constexpr std::size_t kStreams = 8;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, 480);

  PipelineManager coalesced(make_config(), 1, manual_options(true));
  seed_group(coalesced, kStreams, train);
  const auto got = run_rounds(coalesced, tests, 4);

  PipelineManager reference(make_config(), 1, manual_options(false));
  seed_group(reference, kStreams, train);
  const auto want = run_rounds(reference, tests, 4);

  std::size_t drifts = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_bit_identical(got[s], want[s]);
    for (const PipelineStep& step : want[s]) drifts += step.drift_detected;
  }
  ASSERT_GE(drifts, kStreams) << "scenario must drift on every stream";

  // The runs must differ in HOW they drained: the coalesced manager did
  // real multi-stream GEMMs, the reference did none.
  const edgedrift::obs::Snapshot snap = coalesced.stats();
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_GT(snap.shards[0].coalesced_gemms, 0u);
  EXPECT_GE(snap.shards[0].coalesced_streams,
            2 * snap.shards[0].coalesced_gemms);
  const edgedrift::obs::Snapshot ref_snap = reference.stats();
  EXPECT_EQ(ref_snap.shards[0].coalesced_gemms, 0u);
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

// The approximate tiers promise decisions, not bits, against f64
// (linalg/numerics.hpp). Within a tier, though, the coalesced drain scores
// a row exactly as the per-stream drain does — a row's score does not
// depend on the block it arrives in — so the steps are bit-identical too.
void check_tier_decision_equivalent(NumericsTier tier) {
  constexpr std::size_t kStreams = 6;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, 480);

  PipelineConfig config = make_config();
  config.numerics = tier;
  PipelineManager coalesced(config, 1, manual_options(true));
  seed_group(coalesced, kStreams, train);
  const auto got = run_rounds(coalesced, tests, 4);

  PipelineManager reference(config, 1, manual_options(false));
  seed_group(reference, kStreams, train);
  const auto want = run_rounds(reference, tests, 4);

  EXPECT_GT(coalesced.stats().shards[0].coalesced_gemms, 0u);

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_bit_identical(got[s], want[s]);
    const DecisionTrace a = trace_of(got[s]);
    const DecisionTrace b = trace_of(want[s]);
    ASSERT_GE(b.drift_positions.size(), 1u)
        << "scenario must actually drift or the comparison is vacuous";
    ASSERT_EQ(a.drift_positions.size(), b.drift_positions.size());
    for (std::size_t d = 0; d < b.drift_positions.size(); ++d) {
      const std::size_t x = a.drift_positions[d];
      const std::size_t y = b.drift_positions[d];
      EXPECT_LE(x > y ? x - y : y - x, 25u) << "drift event " << d;
    }
    ASSERT_EQ(a.labels.size(), b.labels.size());
    std::size_t disagreements = 0;
    for (std::size_t i = 0; i < b.labels.size(); ++i) {
      if (a.labels[i] != b.labels[i]) ++disagreements;
    }
    EXPECT_LE(disagreements, b.labels.size() / 200)
        << "label agreement below 99.5%";
  }
}

TEST(CoalescedDrain, TierDecisionEquivalentAtF32) {
  check_tier_decision_equivalent(NumericsTier::kFastF32);
}

TEST(CoalescedDrain, TierDecisionEquivalentAtI8) {
  check_tier_decision_equivalent(NumericsTier::kQuantI8);
}

// Constructor-built streams use seed+i, so their projections — and
// fingerprints — all differ: the planner must fall back per-stream for
// every one of them, count the fallbacks, and still match the
// non-coalescing drain bit-for-bit.
TEST(CoalescedDrain, FingerprintMismatchFallsBackPerStream) {
  constexpr std::size_t kStreams = 3;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, 240);

  PipelineManager coalesced(make_config(), kStreams, manual_options(true));
  PipelineManager reference(make_config(), kStreams, manual_options(false));
  for (std::size_t s = 0; s < kStreams; ++s) {
    coalesced.fit(s, train.x, train.labels);
    reference.fit(s, train.x, train.labels);
  }
  const auto got = run_rounds(coalesced, tests, 4);
  const auto want = run_rounds(reference, tests, 4);
  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_bit_identical(got[s], want[s]);
  }

  const edgedrift::obs::Snapshot snap = coalesced.stats();
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_EQ(snap.shards[0].coalesced_gemms, 0u);
  // Every planning pass saw kStreams distinct single-stream groups.
  EXPECT_GE(snap.shards[0].coalesce_fallbacks, kStreams);
}

// Eviction churn interleaved with coalescing: a tight hot budget forces
// evict/restore cycles between drain rounds while groups keep forming from
// whatever is resident. The evict->restore round trip is bit-identical at
// f64 and group membership only ever covers scheduled (hence unevictable)
// streams, so the steps must STILL match the non-coalescing run exactly.
TEST(CoalescedDrain, EvictRestoreChurnKeepsBitIdentityAtF64) {
  constexpr std::size_t kStreams = 6;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, 240);

  ManagerOptions on = manual_options(true);
  on.hot_stream_budget = 3;
  PipelineManager coalesced(make_config(), 1, on);
  seed_group(coalesced, kStreams, train);
  const auto got = run_rounds(coalesced, tests, 4);

  ManagerOptions off = manual_options(false);
  off.hot_stream_budget = 3;
  PipelineManager reference(make_config(), 1, off);
  seed_group(reference, kStreams, train);
  const auto want = run_rounds(reference, tests, 4);

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_bit_identical(got[s], want[s]);
  }

  const edgedrift::obs::Snapshot snap = coalesced.stats();
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_GT(snap.shards[0].coalesced_gemms, 0u);
  EXPECT_GT(snap.shards[0].evictions, 0u) << "budget must actually churn";
  EXPECT_GT(snap.shards[0].restores, 0u);
}

// The race surface of the planner: concurrent submit_batch producers
// against shard workers running coalesced drains (kShard dispatch), with a
// hot budget keeping eviction in the mix. Run under TSan in CI; the
// invariant checked here is only that no sample is lost or duplicated.
TEST(CoalescedDrain, SubmitBatchRacesCoalescedShardDrains) {
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBurst = 8;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, kBatches * kBurst);

  ManagerOptions options;  // kShard dispatch, coalescing on by default.
  options.shards = 2;
  options.queue_capacity = 64;
  options.hot_stream_budget = 2;
  PipelineManager manager(make_config(), 1, options);
  seed_group(manager, kStreams, train);

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      Matrix rows(kBurst, tests[0].x.cols());
      for (std::size_t b = 0; b < kBatches; ++b) {
        for (std::size_t s = t; s < kStreams; s += 2) {
          for (std::size_t r = 0; r < kBurst; ++r) {
            rows.set_row(r, tests[s].x.row(b * kBurst + r));
          }
          ASSERT_EQ(manager.submit_batch(s, rows), kBurst);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(manager.stats(s).samples, kBatches * kBurst)
        << "stream " << s;
  }
  EXPECT_EQ(manager.stats().totals().samples, kStreams * kBatches * kBurst);
}

// The race surface of the kManual drain: producer threads feed their own
// seeded streams through submit_batch (and, on a full ring, drain them
// inline through poll()) while the test thread loops drain(). A stream whose
// rows land after a drain cleared its listed flag is listed again, so no row
// is stranded; every stream's steps stay in FIFO order and bit-identical to
// a per-stream drain of the same rows, across the drift and the recovery
// that moves streams out of the coalesced group. Run under TSan in CI.
TEST(CoalescedDrain, ManualDrainRacesProducerThreads) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kStreams = 2 * kProducers;
  constexpr std::size_t kSamples = 320;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, kSamples);

  PipelineManager reference(make_config(), 1, manual_options(false));
  seed_group(reference, kStreams, train);
  const auto want = run_rounds(reference, tests, 8);

  ManagerOptions options = manual_options(true);
  options.shards = 2;
  options.queue_capacity = 64;
  PipelineManager manager(make_config(), 1, options);
  seed_group(manager, kStreams, train);

  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Blocks of 1 to 24 rows, alternating between the producer's streams.
      const std::size_t own[] = {p, p + kProducers};
      std::size_t width = 1;
      for (std::size_t at = 0; at < kSamples;) {
        const std::size_t take = std::min(width, kSamples - at);
        for (const std::size_t s : own) {
          const edgedrift::linalg::ConstMatrixView block{tests[s].x, at,
                                                         at + take};
          EXPECT_EQ(manager.submit_batch(s, block), take);
        }
        at += take;
        width = width % 24 + 1;
      }
      finished.fetch_add(1);
    });
  }
  while (finished.load() < kProducers) {
    manager.drain();
    std::this_thread::yield();
  }
  for (auto& p : producers) p.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    EXPECT_EQ(manager.telemetry(s).processed, kSamples);
    expect_steps_bit_identical(manager.take_steps(s), want[s]);
  }
}

}  // namespace
