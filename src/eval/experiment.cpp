#include "edgedrift/eval/experiment.hpp"

#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/stopwatch.hpp"

namespace edgedrift::eval {
namespace {

/// Every detector-based method is the same program: configure the pipeline
/// with the method's drift::DetectorSpec and stream. The facade supplies
/// the recovery loop (reconstruction, re-alignment, detector re-arming,
/// reference refill for the batch detectors) that the per-method runners
/// used to hand-roll.
core::PipelineConfig method_pipeline_config(Method method,
                                            const data::Dataset& train,
                                            const ExperimentConfig& config) {
  core::PipelineConfig pc = config.pipeline;
  pc.input_dim = train.dim();
  switch (method) {
    case Method::kProposed:
      pc.detector.kind = drift::DetectorKind::kCentroid;
      break;
    case Method::kQuantTree:
      pc.detector.kind = drift::DetectorKind::kQuantTree;
      pc.detector.quanttree = config.quanttree;
      pc.seed = config.seed;  // Matches the historical model seeding.
      break;
    case Method::kSpll:
      pc.detector.kind = drift::DetectorKind::kSpll;
      pc.detector.spll = config.spll;
      pc.seed = config.seed;
      break;
    case Method::kMultiWindow:
      pc.detector.kind = drift::DetectorKind::kMultiWindow;
      pc.detector.windows = config.ensemble_windows;
      pc.seed = config.seed;
      break;
    case Method::kBaseline:
    case Method::kOnlad:
      EDGEDRIFT_ASSERT(false, "model-only methods have no detector");
      break;
  }
  return pc;
}

ExperimentResult run_pipeline_method(Method method, const data::Dataset& train,
                                     const data::Dataset& test,
                                     const ExperimentConfig& config) {
  ExperimentResult result;
  result.method = method;

  core::Pipeline pipeline(method_pipeline_config(method, train, config));
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

ExperimentResult run_experiment(Method method, const data::Dataset& train,
                                const data::Dataset& test,
                                const ExperimentConfig& config) {
  EDGEDRIFT_ASSERT(train.dim() == test.dim(), "train/test dim mismatch");
  switch (method) {
    case Method::kBaseline:
    case Method::kOnlad:
      return run_model_only(method, train, test, config);
    case Method::kProposed:
    case Method::kQuantTree:
    case Method::kSpll:
    case Method::kMultiWindow:
      return run_pipeline_method(method, train, test, config);
  }
  EDGEDRIFT_ASSERT(false, "unreachable");
  return {};
}

}  // namespace edgedrift::eval
