#include "baselines/experiment.hpp"

#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/stopwatch.hpp"

namespace edgedrift::eval {
namespace {

/// Every detector-based method is the same program: configure the pipeline
/// with the method's drift::DetectorSpec and stream. The facade supplies
/// the recovery loop (reconstruction, re-alignment, detector re-arming);
/// the batch detectors' reference refill comes with their catalogue spec.
ExperimentResult run_pipeline_method(
    Method method, const data::Dataset& train, const data::Dataset& test,
    const ExperimentConfig& config,
    const baselines::ComparisonSettings& detectors) {
  ExperimentResult result;
  result.method = method;

  core::PipelineConfig pc = config.pipeline;
  pc.input_dim = train.dim();
  // The comparison methods keep the historical model seeding.
  if (method != Method::kProposed) pc.seed = config.seed;
  const baselines::Kind kind =
      method == Method::kQuantTree     ? baselines::Kind::kQuantTree
      : method == Method::kSpll        ? baselines::Kind::kSpll
      : method == Method::kMultiWindow ? baselines::Kind::kMultiWindow
                                       : baselines::Kind::kCentroid;
  pc.detector = baselines::detector_spec(kind, detectors, pc.detector);
  core::Pipeline pipeline(pc);
  pipeline.fit(train.x, train.labels);

  util::Stopwatch clock;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const core::PipelineStep step = pipeline.process(test.x.row(i));
    result.accuracy.record(static_cast<int>(step.prediction.label) ==
                           test.labels[i]);
    if (step.drift_detected) result.detections.record(i);
  }
  result.runtime_seconds = clock.elapsed_seconds();
  result.detector_memory_bytes = pipeline.detector_memory_bytes();
  result.model_memory_bytes = pipeline.model().memory_bytes();
  return result;
}

ExperimentResult run_model_only(Method method, const data::Dataset& train,
                                const data::Dataset& test,
                                const ExperimentConfig& config) {
  ExperimentResult result;
  result.method = method;
  const bool passive = method == Method::kOnlad;

  util::Rng rng(config.seed);
  auto projection = oselm::make_projection(
      train.dim(), config.pipeline.hidden_dim, config.pipeline.activation,
      rng, config.pipeline.weight_scale);
  model::MultiInstanceModel model(
      config.pipeline.num_labels, std::move(projection),
      config.pipeline.reg_lambda,
      passive ? config.onlad_forgetting : 1.0);
  model.init_train(train.x, train.labels);

  model::BatchWorkspace ws;
  util::Stopwatch clock;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const model::Prediction pred =
        passive ? model.train_closest(test.x.row(i), ws)
                : model.predict(test.x.row(i), ws);
    result.accuracy.record(static_cast<int>(pred.label) == test.labels[i]);
  }
  result.runtime_seconds = clock.elapsed_seconds();
  result.detector_memory_bytes = 0;
  result.model_memory_bytes = model.memory_bytes();
  return result;
}

}  // namespace

std::string method_name(Method method) {
  switch (method) {
    case Method::kProposed:
      return "Proposed method";
    case Method::kBaseline:
      return "Baseline (no concept drift detection)";
    case Method::kQuantTree:
      return "Quant Tree";
    case Method::kSpll:
      return "SPLL";
    case Method::kOnlad:
      return "ONLAD";
    case Method::kMultiWindow:
      return "Multi-window ensemble";
  }
  return "unknown";
}

ExperimentResult run_experiment(
    Method method, const data::Dataset& train, const data::Dataset& test,
    const ExperimentConfig& config,
    const baselines::ComparisonSettings& detectors) {
  EDGEDRIFT_ASSERT(train.dim() == test.dim(), "train/test dim mismatch");
  switch (method) {
    case Method::kBaseline:
    case Method::kOnlad:
      return run_model_only(method, train, test, config);
    case Method::kProposed:
    case Method::kQuantTree:
    case Method::kSpll:
    case Method::kMultiWindow:
      return run_pipeline_method(method, train, test, config, detectors);
  }
  EDGEDRIFT_ASSERT(false, "unreachable");
  return {};
}

}  // namespace edgedrift::eval
