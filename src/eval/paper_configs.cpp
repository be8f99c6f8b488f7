#include "edgedrift/eval/paper_configs.hpp"

#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"

namespace edgedrift::eval {

ExperimentConfig nsl_kdd_paper_config(std::size_t window) {
  ExperimentConfig config;
  config.pipeline.num_labels = 2;
  config.pipeline.input_dim = data::NslKddLike::kDim;
  config.pipeline.hidden_dim = 22;
  config.pipeline.window_size = window;
  config.pipeline.detector_initial_count = 0;
  // A tight anomaly gate keeps pre-drift windows rare, so the recent
  // centroids stay responsive when the drift finally arrives.
  config.pipeline.theta_error_z = 4.0;
  config.pipeline.reconstruction.n_search = 20;
  config.pipeline.reconstruction.n_update = 200;
  config.pipeline.reconstruction.n_total = 1000;
  config.onlad_forgetting = 0.97;
  return config;
}

ExperimentConfig cooling_fan_paper_config(std::size_t window) {
  ExperimentConfig config;
  config.pipeline.num_labels = 1;
  config.pipeline.input_dim = data::CoolingFanLike::kDim;
  config.pipeline.hidden_dim = 22;
  config.pipeline.window_size = window;
  config.pipeline.detector_initial_count = 0;
  config.pipeline.reconstruction.n_search = 5;
  config.pipeline.reconstruction.n_update = 30;
  config.pipeline.reconstruction.n_total = 120;
  config.onlad_forgetting = 0.99;
  return config;
}

}  // namespace edgedrift::eval
