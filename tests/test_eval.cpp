// Tests for the evaluation harness: streaming accuracy, detection logs,
// label-mapped accuracy, memory audit.
#include <gtest/gtest.h>

#include "edgedrift/eval/memory_audit.hpp"
#include "edgedrift/eval/metrics.hpp"
#include "oracle/metrics.hpp"

namespace {

using edgedrift::eval::best_mapped_accuracy;
using edgedrift::eval::DetectionLog;
using edgedrift::eval::MemoryAudit;
using edgedrift::eval::StreamingAccuracy;

TEST(StreamingAccuracy, OverallFraction) {
  StreamingAccuracy acc;
  acc.record(true);
  acc.record(false);
  acc.record(true);
  acc.record(true);
  EXPECT_DOUBLE_EQ(acc.overall(), 0.75);
  EXPECT_EQ(acc.samples(), 4u);
}

TEST(StreamingAccuracy, RangeSlices) {
  StreamingAccuracy acc;
  for (int i = 0; i < 10; ++i) acc.record(i < 5);
  EXPECT_DOUBLE_EQ(acc.range(0, 5), 1.0);
  EXPECT_DOUBLE_EQ(acc.range(5, 10), 0.0);
  EXPECT_DOUBLE_EQ(acc.range(3, 7), 0.5);
  EXPECT_DOUBLE_EQ(acc.range(4, 4), 0.0);  // Empty range.
}

TEST(StreamingAccuracy, WindowedSeriesDropsPartialTail) {
  StreamingAccuracy acc;
  for (int i = 0; i < 25; ++i) acc.record(i % 2 == 0);
  const auto series = acc.windowed(10);
  ASSERT_EQ(series.size(), 2u);  // 25 / 10 = 2 full windows.
  EXPECT_DOUBLE_EQ(series[0], 0.5);
  EXPECT_DOUBLE_EQ(series[1], 0.5);
}

TEST(StreamingAccuracy, ClearResets) {
  StreamingAccuracy acc;
  acc.record(true);
  acc.clear();
  EXPECT_EQ(acc.samples(), 0u);
}

TEST(DetectionLog, DelayIsFirstDetectionAtOrAfterDrift) {
  DetectionLog log;
  log.record(100);
  log.record(350);
  log.record(500);
  EXPECT_EQ(log.delay(300).value(), 50u);
  EXPECT_EQ(log.delay(350).value(), 0u);
  EXPECT_EQ(log.delay(501).has_value(), false);
}

TEST(DetectionLog, FalseAlarmsAreStrictlyBeforeDrift) {
  DetectionLog log;
  log.record(100);
  log.record(200);
  log.record(400);
  EXPECT_EQ(log.false_alarms(300), 2u);
  EXPECT_EQ(log.false_alarms(100), 0u);
  EXPECT_EQ(log.false_alarms(1000), 3u);
}

TEST(DetectionLog, EmptyLog) {
  DetectionLog log;
  EXPECT_FALSE(log.delay(0).has_value());
  EXPECT_EQ(log.false_alarms(100), 0u);
  EXPECT_EQ(log.count(), 0u);
}

TEST(BestMappedAccuracy, IdentityMappingWhenLabelsAgree) {
  const std::vector<int> pred{0, 1, 0, 1};
  const std::vector<int> truth{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(best_mapped_accuracy(pred, truth, 2), 1.0);
}

TEST(BestMappedAccuracy, RecoversFlippedLabels) {
  const std::vector<int> pred{1, 0, 1, 0};
  const std::vector<int> truth{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(best_mapped_accuracy(pred, truth, 2), 1.0);
}

TEST(BestMappedAccuracy, PartialAgreement) {
  // Best bijection can fix the swap but not the noise.
  const std::vector<int> pred{1, 0, 1, 1};
  const std::vector<int> truth{0, 1, 0, 1};
  // Swapped mapping: matches at positions 0,1,2 -> 3/4.
  EXPECT_DOUBLE_EQ(best_mapped_accuracy(pred, truth, 2), 0.75);
}

TEST(BestMappedAccuracy, ThreeClassPermutation) {
  const std::vector<int> pred{2, 0, 1, 2, 0, 1};
  const std::vector<int> truth{0, 1, 2, 0, 1, 2};
  EXPECT_DOUBLE_EQ(best_mapped_accuracy(pred, truth, 3), 1.0);
}

TEST(BestMappedAccuracy, EmptyInput) {
  EXPECT_DOUBLE_EQ(best_mapped_accuracy({}, {}, 2), 0.0);
}

TEST(MemoryAudit, TotalsAndTable) {
  MemoryAudit audit;
  audit.add("a", 1024);
  audit.add("b", 2048);
  EXPECT_EQ(audit.total_bytes(), 3072u);
  const std::string table = audit.table();
  EXPECT_NE(table.find("a"), std::string::npos);
  EXPECT_NE(table.find("1.0 kB"), std::string::npos);
  EXPECT_NE(table.find("3.0 kB"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_EQ(audit.entries().size(), 2u);
}

TEST(MemoryAudit, EmptyAuditHasZeroTotal) {
  MemoryAudit audit;
  EXPECT_EQ(audit.total_bytes(), 0u);
  EXPECT_NE(audit.table().find("TOTAL"), std::string::npos);
}

TEST(PrequentialAccuracy, NoFadingEqualsRunningMean) {
  edgedrift::eval::PrequentialAccuracy preq(1.0);
  preq.record(true);
  preq.record(false);
  preq.record(true);
  preq.record(true);
  EXPECT_DOUBLE_EQ(preq.value(), 0.75);
  EXPECT_EQ(preq.samples(), 4u);
}

TEST(PrequentialAccuracy, FadingEmphasizesRecentOutcomes) {
  edgedrift::eval::PrequentialAccuracy fading(0.9);
  edgedrift::eval::PrequentialAccuracy flat(1.0);
  // 100 correct, then 20 wrong: the faded estimate must react much harder.
  for (int i = 0; i < 100; ++i) {
    fading.record(true);
    flat.record(true);
  }
  for (int i = 0; i < 20; ++i) {
    fading.record(false);
    flat.record(false);
  }
  EXPECT_LT(fading.value(), 0.25);
  EXPECT_GT(flat.value(), 0.8);
}

TEST(PrequentialAccuracy, RecordReturnsCurrentValue) {
  edgedrift::eval::PrequentialAccuracy preq(0.99);
  EXPECT_DOUBLE_EQ(preq.record(true), 1.0);
  EXPECT_LT(preq.record(false), 1.0);
}

TEST(PrequentialAccuracy, ResetClears) {
  edgedrift::eval::PrequentialAccuracy preq(0.99);
  preq.record(true);
  preq.reset();
  EXPECT_EQ(preq.samples(), 0u);
  EXPECT_DOUBLE_EQ(preq.value(), 0.0);
}

}  // namespace
