#include "edgedrift/eval/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/traffic.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::eval {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The cell's pipeline configuration: the template with the scenario's
/// geometry and the swept detector kind stamped in.
core::PipelineConfig cell_config(const data::CompiledScenario& scenario,
                                 drift::DetectorKind kind,
                                 const SweepCellConfig& config) {
  core::PipelineConfig cfg = config.pipeline;
  cfg.input_dim = scenario.train.dim();
  cfg.num_labels = scenario.spec.num_labels;
  cfg.detector.kind = kind;
  return cfg;
}

/// Single-pipeline replay: the stream row by row through process().
void replay_pipeline(const data::CompiledScenario& scenario,
                     const core::PipelineConfig& cfg, SweepCell& cell,
                     std::vector<std::uint8_t>& correct) {
  core::Pipeline pipeline(cfg);
  pipeline.fit(scenario.train.x, scenario.train.labels);
  const data::Dataset& stream = scenario.stream;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const int label = stream.labels[i];
    const core::PipelineStep step = pipeline.process(stream.x.row(i), label);
    correct[i] =
        static_cast<int>(step.prediction.label) == label ? 1 : 0;
    if (step.drift_detected) cell.detections.push_back(i);
  }
  cell.runtime_seconds = seconds_since(t0);
}

/// Serving-layer replay: the TrafficShaper carves the stream into shaped
/// submit_batch ticks spread over the spec's managed streams; every
/// submitted row remembers its global index so drained steps map back
/// onto the scenario's ground-truth timeline.
void replay_manager(const data::CompiledScenario& scenario,
                    const core::PipelineConfig& cfg,
                    const SweepCellConfig& config, SweepCell& cell,
                    std::vector<std::uint8_t>& correct) {
  const data::TrafficSpec& traffic = scenario.spec.traffic;
  core::ManagerOptions opts;
  opts.shards = config.manager_shards;
  core::PipelineManager manager(cfg, traffic.streams, opts);
  for (std::size_t s = 0; s < traffic.streams; ++s) {
    manager.fit(s, scenario.train.x, scenario.train.labels);
  }

  const data::Dataset& stream = scenario.stream;
  const std::size_t n = stream.size();
  // Shaper seed decorrelated from the scenario seed: arrival shape must
  // not mirror the sample noise.
  data::TrafficShaper shaper(traffic, scenario.spec.seed * 2654435761u + 1);
  std::vector<std::vector<std::size_t>> sent(traffic.streams);

  const auto t0 = Clock::now();
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t rows = std::min(shaper.next_batch(), n - pos);
    const std::size_t id = shaper.next_stream();
    const std::span<const int> labels{stream.labels.data() + pos, rows};
    core::SubmitStatus status = core::SubmitStatus::kOk;
    const std::size_t accepted = manager.submit_batch(
        id, {stream.x, pos, pos + rows}, labels, &status);
    EDGEDRIFT_ASSERT(accepted == rows && status == core::SubmitStatus::kOk,
                     "sweep replay submit was refused");
    for (std::size_t r = 0; r < rows; ++r) sent[id].push_back(pos + r);
    pos += rows;
  }
  manager.drain();
  cell.runtime_seconds = seconds_since(t0);

  for (std::size_t s = 0; s < traffic.streams; ++s) {
    const std::vector<core::PipelineStep> steps = manager.take_steps(s);
    EDGEDRIFT_ASSERT(steps.size() == sent[s].size(),
                     "drained steps do not match submitted rows");
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const std::size_t gi = sent[s][k];
      correct[gi] = static_cast<int>(steps[k].prediction.label) ==
                            stream.labels[gi]
                        ? 1
                        : 0;
      if (steps[k].drift_detected) cell.detections.push_back(gi);
    }
  }
  std::sort(cell.detections.begin(), cell.detections.end());
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

core::PipelineConfig default_sweep_pipeline() {
  core::PipelineConfig cfg;
  // Mirror the paper experiment configs (eval/paper_configs.cpp): fresh
  // per-window recent centroids and a tight anomaly gate keep pre-drift
  // windows rare without dulling the post-drift response.
  cfg.detector_initial_count = 0;
  cfg.theta_error_z = 4.0;
  return cfg;
}

SweepCell run_sweep_cell(const data::CompiledScenario& scenario,
                         drift::DetectorKind kind,
                         const SweepCellConfig& config) {
  SweepCell cell;
  cell.scenario = scenario.spec.name;
  cell.kind = kind;
  cell.streams = scenario.spec.traffic.streams;
  cell.via_manager = cell.streams > 1;
  cell.calibrated_hellinger = scenario.calibrated_hellinger;

  const core::PipelineConfig cfg = cell_config(scenario, kind, config);
  std::vector<std::uint8_t> correct(scenario.stream.size(), 0);
  if (cell.via_manager) {
    replay_manager(scenario, cfg, config, cell, correct);
  } else {
    replay_pipeline(scenario, cfg, cell, correct);
  }
  if (cell.runtime_seconds > 0.0) {
    cell.throughput_rows_per_s =
        static_cast<double>(scenario.stream.size()) / cell.runtime_seconds;
  }
  cell.metrics = score_scenario(cell.detections, scenario.annotations,
                                scenario.stream.size(), correct,
                                config.metrics);
  return cell;
}

SweepResult run_sweep(std::span<const data::ScenarioSpec> specs,
                      std::span<const drift::DetectorKind> kinds,
                      const SweepCellConfig& config) {
  SweepResult out;
  for (const data::ScenarioSpec& spec : specs) {
    const data::CompiledScenario compiled = data::compile_scenario(spec);
    for (const drift::DetectorKind kind : kinds) {
      out.cells.push_back(run_sweep_cell(compiled, kind, config));
    }
  }
  return out;
}

std::string sweep_json(const SweepResult& result) {
  std::string out = "{\n  \"schema\": \"edgedrift-eval-v1\",\n  \"cells\": [";
  bool first = true;
  for (const SweepCell& c : result.cells) {
    const ScenarioMetrics& m = c.metrics;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\n";
    out += "      \"scenario\": \"" + c.scenario + "\",\n";
    out += "      \"detector\": \"" +
           std::string(drift::kind_name(c.kind)) + "\",\n";
    out += std::string("      \"via_manager\": ") +
           (c.via_manager ? "true" : "false") + ",\n";
    out += "      \"streams\": " + std::to_string(c.streams) + ",\n";
    out += "      \"calibrated_hellinger\": " +
           fmt_double(c.calibrated_hellinger) + ",\n";
    out += "      \"stream_length\": " +
           std::to_string(m.stream_length) + ",\n";
    out += "      \"drift_points\": " + std::to_string(m.drift_points) +
           ",\n";
    out += "      \"detected\": " + std::to_string(m.detected) + ",\n";
    out += "      \"missed\": " + std::to_string(m.missed) + ",\n";
    out += "      \"delays\": [";
    for (std::size_t k = 0; k < m.delays.size(); ++k) {
      if (k > 0) out += ", ";
      out += std::to_string(m.delays[k]);
    }
    out += "],\n";
    out += "      \"mean_delay\": " + fmt_double(m.mean_delay) + ",\n";
    out += "      \"extra_detections\": " +
           std::to_string(m.extra_detections) + ",\n";
    out += "      \"false_alarms\": " + std::to_string(m.false_alarms) +
           ",\n";
    out += "      \"false_alarm_rate_per_1k\": " +
           fmt_double(m.false_alarm_rate_per_1k) + ",\n";
    out += "      \"recovery_accuracy\": " +
           fmt_double(m.recovery_accuracy) + ",\n";
    out += "      \"overall_accuracy\": " +
           fmt_double(m.overall_accuracy) + ",\n";
    out += "      \"throughput_rows_per_s\": " +
           fmt_double(c.throughput_rows_per_s) + "\n";
    out += "    }";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace edgedrift::eval
