// Table 6 reproduction: per-sample execution-time breakdown of the proposed
// method's six stages, on the cooling-fan configuration (511 features,
// hidden dim 22) the paper ran on the Raspberry Pi Pico.
//
// Paper reference values on a 133 MHz Cortex-M0+ (ms/sample):
//   label prediction 148.87, distance computation 10.58,
//   retraining w/o label prediction 25.42, retraining w/ prediction 166.65,
//   coordinates initialization 25.59, coordinates update 6.05.
// Absolute numbers on a desktop CPU are ~1e4x smaller; the claim is the
// ordering: prediction-bearing stages dominate, the detector's distance
// computation costs a fraction of a prediction, and the coordinate update
// is the cheapest stage.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/drift/centroid_detector.hpp"
#include "edgedrift/drift/steps.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using namespace edgedrift;

constexpr std::size_t kDim = data::CoolingFanLike::kDim;  // 511.
constexpr std::size_t kHidden = 22;
// The paper's Pico demo runs the fan model; it uses one instance per label
// with C = 2 so both prediction and retraining exercise the argmin loop.
constexpr std::size_t kLabels = 2;

struct Fixture {
  util::Rng rng{5};
  oselm::ProjectionPtr projection = oselm::make_projection(
      kDim, kHidden, oselm::Activation::kSigmoid, rng);
  model::MultiInstanceModel model{kLabels, projection, 1e-2};
  model::BatchWorkspace ws;
  // The reconstruction's coordinate store, as drift::Reconstructor holds it.
  linalg::Matrix coords{kLabels, kDim};
  std::vector<std::size_t> coord_counts = std::vector<std::size_t>(kLabels, 1);
  std::vector<double> init_scratch = std::vector<double>(kDim);
  drift::CentroidDetector detector{[] {
    drift::CentroidDetectorConfig config;
    config.num_labels = kLabels;
    config.dim = kDim;
    config.window_size = 1;     // Every sample closes a window and sums dist.
    config.theta_error = 0.0;   // Gate always open.
    config.theta_drift = 1e18;  // Never fire.
    return config;
  }()};
  std::vector<double> sample = std::vector<double>(kDim);

  Fixture() {
    // Train on synthetic fan spectra so the model state is realistic.
    data::CoolingFanLikeConfig config;
    config.train_size = 120;
    data::CoolingFanLike generator(config);
    util::Rng data_rng(7);
    data::Dataset train = generator.training(data_rng);
    // Split the single-condition data into two pseudo-labels so every
    // instance is initialized.
    for (std::size_t i = 0; i < train.size(); ++i) {
      train.labels[i] = static_cast<int>(i % kLabels);
    }
    model.init_train(train.x, train.labels);
    detector.calibrate(train.x, train.labels);
    coords = detector.trained_centroids();
    FanSample();
  }

  void FanSample() {
    data::FanSpectrumConcept holes(data::FanCondition::kHoles,
                                   data::FanEnvironment::kSilent);
    holes.sample(rng, sample);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Algorithm 1 line 6: argmin over per-label autoencoder scores.
void BM_LabelPrediction(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.predict(f.sample, f.ws));
  }
}
BENCHMARK(BM_LabelPrediction)->Name("label prediction");

// Algorithm 1 lines 12-14: centroid update + summed L1 distance.
void BM_DistanceComputation(benchmark::State& state) {
  auto& f = fixture();
  drift::Observation obs;
  obs.x = f.sample;
  obs.predicted_label = 0;
  obs.anomaly_score = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.observe(obs));
  }
}
BENCHMARK(BM_DistanceComputation)->Name("distance computation");

// Algorithm 2 lines 8-9: nearest-coordinate label + one OS-ELM step.
void BM_RetrainNoPrediction(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const std::size_t label =
        drift::steps::nearest_row<double>(f.coords.flat(), f.sample);
    f.model.train_label(f.model.project(f.sample, f.ws), f.sample, label);
  }
}
BENCHMARK(BM_RetrainNoPrediction)
    ->Name("model retraining without label prediction");

// Algorithm 2 lines 11-12: model prediction + one OS-ELM step.
void BM_RetrainWithPrediction(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.train_closest(f.sample, f.ws));
  }
}
BENCHMARK(BM_RetrainWithPrediction)
    ->Name("model retraining with label prediction");

// Algorithm 3: spread-maximizing coordinate substitution.
void BM_InitCoord(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(drift::steps::spread_coord(
        f.coords.flat(), std::span<const double>(f.sample),
        std::span(f.init_scratch)));
  }
}
BENCHMARK(BM_InitCoord)->Name("label coordinates initialization");

// Algorithm 4: nearest-coordinate running-mean update.
void BM_UpdateCoord(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(drift::steps::update_coord(
        f.coords.flat(), std::span(f.coord_counts),
        std::span<const double>(f.sample), false));
  }
}
BENCHMARK(BM_UpdateCoord)->Name("label coordinates update");

}  // namespace

BENCHMARK_MAIN();
