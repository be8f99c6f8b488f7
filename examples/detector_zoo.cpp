// Detector zoo: the proposed detectors and the comparison baselines on the
// same stream — all driven through core::Pipeline via drift::DetectorSpec.
// No detector is hand-wired; each row of the table is the same program with
// a different `config.detector` from the baselines catalogue.
//
// Part 1 runs the nine detector kinds in detect-only mode and prints when
// each fires, what signal it consumes, and how much state it holds — a
// practical menu for picking a detector. Part 2 re-runs the proposed
// detector under each recovery policy to show what the response choice is
// worth in post-drift accuracy.
//
//   $ ./example_detector_zoo
#include <cstdio>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"
#include "baselines/catalogue.hpp"
#include "baselines/refill.hpp"

using namespace edgedrift;

namespace {

core::PipelineConfig base_config(std::size_t dim) {
  core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = dim;
  config.hidden_dim = 22;
  config.window_size = 100;
  config.detector_initial_count = 0;
  config.reconstruction = {20, 120, 500};
  return config;
}

drift::DetectorSpec spec_for(baselines::Kind kind) {
  baselines::ComparisonSettings settings;
  settings.quanttree.num_bins = 32;
  settings.quanttree.batch_size = 480;
  settings.quanttree.alpha = 0.001;
  settings.spll.num_clusters = 2;
  settings.spll.batch_size = 480;
  settings.page_hinkley.lambda = 10.0;
  settings.page_hinkley.use_anomaly_score = true;
  return baselines::detector_spec(kind, settings);
}

const char* signal_for(baselines::Kind kind) {
  switch (kind) {
    case baselines::Kind::kCentroid:
      return "features (labels from model)";
    case baselines::Kind::kMultiWindow:
      return "features (3-window vote)";
    case baselines::Kind::kQuantTree:
    case baselines::Kind::kSpll:
      return "features (batched)";
    case baselines::Kind::kDdm:
    case baselines::Kind::kAdwin:
      return "0/1 errors (needs labels)";
    case baselines::Kind::kEddm:
      return "error gaps (needs labels)";
    case baselines::Kind::kKswin:
      return "anomaly scores (windowed)";
    case baselines::Kind::kPageHinkley:
      return "anomaly scores";
  }
  return "?";
}

/// The detection state a detector holds, without the buffer a batch
/// detector's refill adapter keeps for recoveries (detect-only never
/// refills).
std::size_t detection_state_bytes(const drift::Detector& detector) {
  const auto* refill = dynamic_cast<const baselines::RefillOnRearm*>(&detector);
  return (refill != nullptr ? refill->inner() : detector).memory_bytes();
}

}  // namespace

int main() {
  // Stream: NSL-KDD-like, short version.
  data::NslKddLikeConfig data_config;
  data_config.train_size = 1500;
  data_config.test_size = 8000;
  data_config.drift_point = 3000;
  data::NslKddLike generator(data_config);
  util::Rng rng(9);
  const data::Dataset train = generator.training(rng);
  const data::Dataset stream = generator.test_stream(rng);
  const std::size_t drift_at = data_config.drift_point;

  // Part 1: every detector kind through the same pipeline, detect-only.
  util::Table table({"Detector", "Signal", "First firing", "Delay",
                     "False alarms", "State (kB)"});
  for (const baselines::Kind kind : baselines::kAllKinds) {
    core::PipelineConfig config = base_config(train.dim());
    config.detector = spec_for(kind);
    config.recovery = core::RecoveryPolicy::kDetectOnly;
    core::Pipeline pipeline(config);
    pipeline.fit(train.x, train.labels);

    std::ptrdiff_t first_after = -1;
    std::size_t false_alarms = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      // The true label feeds only the error-rate detectors' mistake
      // stream; the model never sees it.
      const auto step = pipeline.process(stream.x.row(i), stream.labels[i]);
      if (step.drift_detected) {
        if (i < drift_at) {
          ++false_alarms;
        } else if (first_after < 0) {
          first_after = static_cast<std::ptrdiff_t>(i);
        }
      }
    }
    table.add_row(
        {std::string(pipeline.detector().name()),
         signal_for(kind),
         first_after < 0 ? "-" : std::to_string(first_after),
         first_after < 0 ? "-" : std::to_string(first_after -
                                                static_cast<std::ptrdiff_t>(
                                                    drift_at)),
         std::to_string(false_alarms),
         util::fmt(detection_state_bytes(pipeline.detector()) / 1024.0, 1)});
  }
  std::printf("stream: %zu samples, drift at %zu\n\n%s\n", stream.size(),
              drift_at, table.str().c_str());
  std::printf("Notes: error-rate detectors (DDM/ADWIN) need ground-truth\n"
              "labels, which resource-limited deployments rarely have\n"
              "(paper Section 2.2.2); the proposed detector and the batch\n"
              "methods work from features alone.\n\n");

  // Part 2: the same detector, both drift responses.
  struct PolicyRow {
    core::RecoveryPolicy policy;
    const char* name;
  };
  const PolicyRow policies[] = {
      {core::RecoveryPolicy::kReconstruct, "reconstruct (Algorithms 2-4)"},
      {core::RecoveryPolicy::kDetectOnly, "detect only"},
  };
  util::Table recovery_table(
      {"Recovery policy", "Detections", "Tail accuracy (%)"});
  for (const PolicyRow& row : policies) {
    core::PipelineConfig config = base_config(train.dim());
    config.recovery = row.policy;
    core::Pipeline pipeline(config);
    pipeline.fit(train.x, train.labels);

    std::size_t hits = 0;
    const std::size_t tail_start = stream.size() * 3 / 4;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto step = pipeline.process(stream.x.row(i));
      if (i >= tail_start &&
          static_cast<int>(step.prediction.label) == stream.labels[i]) {
        ++hits;
      }
    }
    recovery_table.add_row(
        {row.name, std::to_string(pipeline.stats().drifts),
         util::fmt(100.0 * static_cast<double>(hits) /
                       static_cast<double>(stream.size() - tail_start),
                   1)});
  }
  std::printf("proposed detector under each recovery policy (accuracy over\n"
              "the final quarter of the stream, after the drift):\n\n%s\n",
              recovery_table.str().c_str());
  return 0;
}
