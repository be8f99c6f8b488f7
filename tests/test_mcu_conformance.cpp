// Conformance of the two copies of the proposed system: the double-precision
// core::Pipeline and the float32 mcu::StaticPipeline run the same fitted
// state over the same stream and must make the same decisions — equal drift
// rows, equal reconstructing flags, equal finishing rows, and equal labels
// on at least 99.9% of rows (float32 rounding may flip a near-tie).
//
// The grid covers the detector options the MCU profile loads
// (detector_initial_count 0 and the count prior -1, running mean and EWMA
// recent centroids) on the StaticPipelineNsl fixture's stream and on the
// abrupt and recurrent presets at C = 2, 3 and 4. C >= 3 exercises label
// permutations with cycles longer than a swap.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/data/scenario.hpp"
#include "edgedrift/mcu/static_pipeline.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::data::Dataset;

struct Cell {
  std::string stream;  ///< "nsl", "abrupt" or "recurrent".
  std::uint64_t seed = 0;      ///< Rng seed of the nsl stream.
  std::size_t labels = 2;
  long initial_count = 0;
  double ewma_decay = 0.0;
};

std::string cell_name(const Cell& c) {
  std::string name = c.stream;
  name += c.stream == "nsl" ? std::to_string(c.seed)
                            : "_c" + std::to_string(c.labels);
  name += c.initial_count < 0 ? "_prior" : "_count0";
  name += c.ewma_decay > 0.0 ? "_ewma95" : "_mean";
  return name;
}

void PrintTo(const Cell& c, std::ostream* os) { *os << cell_name(c); }

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const long count : {0L, -1L}) {
    for (const double decay : {0.0, 0.95}) {
      for (std::uint64_t seed = 71; seed <= 76; ++seed) {
        cells.push_back({"nsl", seed, 2, count, decay});
      }
      for (const char* preset : {"abrupt", "recurrent"}) {
        for (const std::size_t labels : {2UL, 3UL, 4UL}) {
          cells.push_back({preset, 0, labels, count, decay});
        }
      }
    }
  }
  return cells;
}

struct Trace {
  std::vector<std::size_t> drift_rows;
  std::vector<std::size_t> finish_rows;
  std::vector<std::size_t> labels;
  std::vector<bool> reconstructing;
};

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void run_both(const PipelineConfig& config, const Dataset& train,
              const Dataset& stream, Trace& lib, Trace& dev) {
  Pipeline reference(config);
  reference.fit(train.x, train.labels);
  auto device =
      std::make_unique<edgedrift::mcu::StaticPipeline<kDim, kHidden, kLabels>>();
  ASSERT_TRUE(device->load(reference));
  std::vector<float> xf(kDim);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto x = stream.x.row(i);
    for (std::size_t j = 0; j < kDim; ++j) xf[j] = static_cast<float>(x[j]);
    const auto a = reference.process(x);
    const auto b = device->process(xf);
    if (a.drift_detected) lib.drift_rows.push_back(i);
    if (b.drift_detected) dev.drift_rows.push_back(i);
    if (a.reconstruction_finished) lib.finish_rows.push_back(i);
    if (b.reconstruction_finished) dev.finish_rows.push_back(i);
    lib.labels.push_back(a.prediction.label);
    dev.labels.push_back(b.label);
    lib.reconstructing.push_back(a.reconstructing);
    dev.reconstructing.push_back(b.reconstructing);
  }
}

class McuConformance : public ::testing::TestWithParam<Cell> {};

TEST_P(McuConformance, CopiesMakeTheSameDecisions) {
  const Cell& cell = GetParam();
  PipelineConfig config;
  config.num_labels = cell.labels;
  config.theta_error_z = 4.0;
  config.detector_initial_count = cell.initial_count;
  config.ewma_decay = cell.ewma_decay;
  Dataset train, stream;
  Trace lib, dev;
  if (cell.stream == "nsl") {
    // The StaticPipelineNsl fixture's stream and configuration.
    edgedrift::data::NslKddLikeConfig data_config;
    data_config.train_size = 800;
    data_config.test_size = 4000;
    data_config.drift_point = 1500;
    edgedrift::data::NslKddLike generator(data_config);
    edgedrift::util::Rng rng(cell.seed);
    train = generator.training(rng);
    stream = generator.test_stream(rng);
    config.input_dim = 38;
    config.hidden_dim = 22;
    config.reconstruction = {20, 120, 500};
    run_both<38, 22, 2>(config, train, stream, lib, dev);
  } else {
    auto spec = edgedrift::data::scenario_preset(cell.stream);
    ASSERT_TRUE(spec.has_value());
    spec->num_labels = cell.labels;
    ASSERT_EQ(spec->num_features, 8u);
    auto compiled = edgedrift::data::compile_scenario(*spec);
    train = std::move(compiled.train);
    stream = std::move(compiled.stream);
    config.input_dim = 8;
    config.hidden_dim = 6;  // The MCU profile requires hidden < input.
    switch (cell.labels) {
      case 2: run_both<8, 6, 2>(config, train, stream, lib, dev); break;
      case 3: run_both<8, 6, 3>(config, train, stream, lib, dev); break;
      default: run_both<8, 6, 4>(config, train, stream, lib, dev); break;
    }
  }

  EXPECT_EQ(dev.drift_rows, lib.drift_rows);
  EXPECT_EQ(dev.finish_rows, lib.finish_rows);
  std::size_t flag_diffs = 0, label_agree = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    flag_diffs += dev.reconstructing[i] != lib.reconstructing[i];
    label_agree += dev.labels[i] == lib.labels[i];
  }
  EXPECT_EQ(flag_diffs, 0u);
  EXPECT_GE(static_cast<double>(label_agree),
            0.999 * static_cast<double>(stream.size()))
      << label_agree << " of " << stream.size() << " labels agree";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, McuConformance, ::testing::ValuesIn(grid()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return cell_name(info.param);
    });

}  // namespace
