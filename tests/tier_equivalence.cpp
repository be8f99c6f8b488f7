#include "tier_equivalence.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

namespace edgedrift::eval {
namespace {

/// One streaming run's decision trace. `margins` (reference run only) is
/// the relative score gap between the winning and runner-up instance just
/// before each sample was processed — the confidence of the decision.
struct Trace {
  double theta_error = 0.0;
  std::vector<int> labels;
  std::vector<double> margins;
  std::vector<std::size_t> drifts;
  std::size_t recoveries = 0;
};

Trace run_trace(const core::PipelineConfig& base,
                linalg::NumericsTier tier, const data::Dataset& train,
                const data::Dataset& test, bool record_margins) {
  core::PipelineConfig config = base;
  config.numerics = tier;
  core::Pipeline pipeline(config);
  pipeline.fit(train.x, train.labels);

  Trace t;
  t.theta_error = pipeline.theta_error();
  t.labels.reserve(test.size());
  model::BatchWorkspace ws;
  if (record_margins) t.margins.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (record_margins) {
      pipeline.model().score_batch(linalg::ConstMatrixView(test.x.row(i)),
                                   ws);
      const std::span<const double> scores = ws.scores.row(0);
      const double best = *std::min_element(scores.begin(), scores.end());
      double second = std::numeric_limits<double>::infinity();
      for (const double s : scores) {
        if (s > best && s < second) second = s;
      }
      if (!std::isfinite(second)) second = best;  // All scores tied.
      t.margins.push_back((second - best) / std::max(best, 1e-12));
    }
    const core::PipelineStep step =
        pipeline.process(test.x.row(i), test.labels[i]);
    t.labels.push_back(step.prediction.label);
    if (step.drift_detected) t.drifts.push_back(i);
    t.recoveries += step.reconstruction_finished;
  }
  return t;
}

}  // namespace

TierEquivalenceReport check_tier_equivalence(
    linalg::NumericsTier tier, const data::Dataset& train,
    const data::Dataset& test, const TierEquivalenceConfig& config) {
  const Trace reference =
      run_trace(config.pipeline, linalg::NumericsTier::kExactF64, train,
                test, /*record_margins=*/true);
  const Trace candidate = run_trace(config.pipeline, tier, train, test,
                                    /*record_margins=*/false);

  TierEquivalenceReport report;
  report.tier = tier;
  report.samples = test.size();
  report.reference_drifts = reference.drifts.size();
  report.tier_drifts = candidate.drifts.size();
  report.reference_recoveries = reference.recoveries;
  report.tier_recoveries = candidate.recoveries;

  const double theta_scale = std::abs(reference.theta_error);
  report.theta_rel_diff =
      theta_scale > 0.0
          ? std::abs(candidate.theta_error - reference.theta_error) /
                theta_scale
          : std::abs(candidate.theta_error - reference.theta_error);

  // Labels are compared only while the two runs share a state trajectory:
  // up to the first detection of either run (see the header's contract).
  std::size_t compare_end = test.size();
  if (!reference.drifts.empty()) {
    compare_end = std::min(compare_end, reference.drifts.front());
  }
  if (!candidate.drifts.empty()) {
    compare_end = std::min(compare_end, candidate.drifts.front());
  }
  report.compared_samples = compare_end;
  for (std::size_t i = 0; i < compare_end; ++i) {
    if (candidate.labels[i] == reference.labels[i]) continue;
    ++report.label_disagreements;
    report.material_disagreements +=
        reference.margins[i] > config.decision_margin_floor;
  }
  if (reference.drifts.size() == candidate.drifts.size()) {
    for (std::size_t i = 0; i < reference.drifts.size(); ++i) {
      const auto a = static_cast<long long>(candidate.drifts[i]);
      const auto b = static_cast<long long>(reference.drifts[i]);
      const auto shift = static_cast<std::size_t>(std::llabs(a - b));
      if (shift > report.max_detection_shift) {
        report.max_detection_shift = shift;
      }
    }
  }

  report.equivalent = true;
  const auto fail = [&report](std::string why) {
    report.equivalent = false;
    if (!report.failure.empty()) report.failure += "; ";
    report.failure += std::move(why);
  };
  if (report.tier_drifts != report.reference_drifts) {
    fail("drift count " + std::to_string(report.tier_drifts) + " != f64's " +
         std::to_string(report.reference_drifts));
  } else if (report.max_detection_shift > config.detection_slack) {
    fail("a detection shifted " +
         std::to_string(report.max_detection_shift) +
         " samples (slack " + std::to_string(config.detection_slack) + ")");
  }
  if (report.tier_recoveries != report.reference_recoveries) {
    fail("recovery count " + std::to_string(report.tier_recoveries) +
         " != f64's " + std::to_string(report.reference_recoveries));
  }
  if (report.theta_rel_diff > config.theta_rel_tol) {
    fail("theta_error drifted " + std::to_string(report.theta_rel_diff) +
         " relative (tol " + std::to_string(config.theta_rel_tol) + ")");
  }
  const double disagreement =
      report.compared_samples == 0
          ? 0.0
          : static_cast<double>(report.material_disagreements) /
                static_cast<double>(report.compared_samples);
  if (disagreement > config.max_label_disagreement) {
    fail(std::to_string(report.material_disagreements) +
         " material label disagreements in " +
         std::to_string(report.compared_samples) +
         " compared samples exceed the allowed fraction");
  }
  return report;
}

}  // namespace edgedrift::eval
