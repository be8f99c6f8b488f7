// Ablation bench: the paper's future-work extension — an ensemble of
// centroid detectors with different window sizes — against its individual
// members, across the three cooling-fan drift types. A small window reacts
// fast to sudden drifts; a large window ignores transients; the ensemble
// (majority vote) aims at both.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/drift/multi_window.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"

using namespace edgedrift;

namespace {

struct StreamOutcome {
  std::optional<std::size_t> delay;
  std::size_t alarms_outside = 0;  ///< Detections before the drift point.
};

StreamOutcome feed(drift::Detector& detector,
                   const model::MultiInstanceModel& model,
                   const data::Dataset& stream, std::size_t drift_at) {
  StreamOutcome outcome;
  model::BatchWorkspace ws;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto pred = model.predict(stream.x.row(i), ws);
    drift::Observation obs;
    obs.x = stream.x.row(i);
    obs.predicted_label = static_cast<int>(pred.label);
    obs.anomaly_score = pred.score;
    if (detector.observe(obs).drift) {
      if (i < drift_at) {
        ++outcome.alarms_outside;
      } else if (!outcome.delay.has_value()) {
        outcome.delay = i - drift_at;
      }
    }
  }
  return outcome;
}

std::string fmt_delay(const std::optional<std::size_t>& d) {
  return d.has_value() ? std::to_string(*d) : "-";
}

}  // namespace

int main() {
  std::printf("=== Ablation: multi-window ensemble (paper future work) "
              "===\n\n");

  data::CoolingFanLike generator;
  util::Rng rng(17);
  const data::Dataset train = generator.training(rng);
  const std::size_t drift_at = generator.config().drift_point;

  // A trained model shared by every detector variant.
  const auto base = bench::cooling_fan_config();
  util::Rng model_rng(base.seed);
  auto projection = oselm::make_projection(
      train.dim(), base.pipeline.hidden_dim, base.pipeline.activation,
      model_rng);
  model::MultiInstanceModel model(1, projection, base.pipeline.reg_lambda);
  model.init_train(train.x, train.labels);

  drift::CentroidDetectorConfig detector_base;
  detector_base.num_labels = 1;
  detector_base.dim = train.dim();
  detector_base.theta_error = 0.0;  // Calibrated below via the model scores.
  detector_base.initial_count = 0;
  {
    // theta_error from training scores (mean + 3 sigma).
    model::BatchWorkspace ws;
    model.score_batch(train.x, ws);
    std::vector<double> scores(train.size());
    for (std::size_t i = 0; i < train.size(); ++i) scores[i] = ws.scores(i, 0);
    double mu = 0.0;
    for (const double s : scores) mu += s;
    mu /= scores.size();
    double var = 0.0;
    for (const double s : scores) var += (s - mu) * (s - mu);
    detector_base.theta_error =
        mu + 3.0 * std::sqrt(var / scores.size());
  }

  const std::vector<std::size_t> window_sizes{10, 50, 150};

  util::Table table({"Detector", "Sudden delay", "Gradual delay",
                     "Reoccurring (want: ignore)", "False alarms"});

  const auto evaluate = [&](drift::Detector& det,
                            const std::string& label) {
    std::string cells[3];
    std::size_t alarms = 0;
    int idx = 0;
    for (const auto* kind : {"sudden", "gradual", "reoccurring"}) {
      util::Rng stream_rng(200 + idx);
      data::Dataset stream;
      if (std::string(kind) == "sudden") {
        stream = generator.sudden_stream(stream_rng);
      } else if (std::string(kind) == "gradual") {
        stream = generator.gradual_stream(stream_rng);
      } else {
        stream = generator.reoccurring_stream(stream_rng);
      }
      det.reset();
      const auto outcome = feed(det, model, stream, drift_at);
      cells[idx] = fmt_delay(outcome.delay);
      alarms += outcome.alarms_outside;
      ++idx;
    }
    table.add_row(
        {label, cells[0], cells[1], cells[2], std::to_string(alarms)});
  };

  // Individual members.
  for (const std::size_t w : window_sizes) {
    auto config = detector_base;
    config.window_size = w;
    drift::CentroidDetector det(config);
    det.calibrate(train.x, train.labels);
    evaluate(det, "single W=" + std::to_string(w));
  }

  // Ensembles under each vote policy.
  for (const auto policy : {drift::VotePolicy::kAny,
                            drift::VotePolicy::kMajority,
                            drift::VotePolicy::kAll}) {
    drift::MultiWindowDetector ensemble(detector_base, window_sizes, policy);
    ensemble.calibrate(train.x, train.labels);
    const char* name = policy == drift::VotePolicy::kAny
                           ? "ensemble {10,50,150} any"
                           : policy == drift::VotePolicy::kMajority
                                 ? "ensemble {10,50,150} majority"
                                 : "ensemble {10,50,150} all";
    evaluate(ensemble, name);
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: 'any' inherits the smallest window's speed but also its\n"
      "sensitivity to the reoccurring transient; 'all' inherits the largest\n"
      "window's robustness but its latency; 'majority' sits between.\n");
  return 0;
}
