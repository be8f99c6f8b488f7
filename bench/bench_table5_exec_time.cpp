// Table 5 reproduction: execution time of the four feature-based methods
// over the 700-sample cooling-fan stream.
//
// Paper reference values on Raspberry Pi 4 (seconds): Quant Tree 1.52,
// SPLL 9.28, Baseline 1.05, Proposed 1.50. Absolute times on a desktop CPU
// are far smaller; the claim is the ordering (SPLL slowest by a wide
// margin, proposed ~ QuantTree, baseline cheapest) and the ratios.
#include <cstdio>

#include "bench_common.hpp"
#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"
#include "baselines/experiment.hpp"

using namespace edgedrift;

int main() {
  std::printf("=== Table 5: execution time for 700 samples (cooling fan) "
              "===\n\n");

  data::CoolingFanLike generator;
  util::Rng rng(2023);
  const data::Dataset train = generator.training(rng);
  util::Rng stream_rng(99);
  const data::Dataset stream = generator.sudden_stream(stream_rng);
  const auto config = bench::cooling_fan_config();

  struct Row {
    eval::Method method;
    const char* label;
    const char* paper;
  };
  const Row rows[] = {
      {eval::Method::kQuantTree, "Quant Tree", "1.52"},
      {eval::Method::kSpll, "SPLL", "9.28"},
      {eval::Method::kBaseline, "Baseline (no detection)", "1.05"},
      {eval::Method::kProposed, "Proposed method", "1.50"},
  };

  util::Table table({"Method", "Time (ms)", "Relative to baseline",
                     "Paper time on Pi 4 (s)"});
  double baseline_seconds = 0.0;
  double measured[4] = {0, 0, 0, 0};
  // Run baseline first to normalize, then everything in table order.
  for (int repeat = 0; repeat < 2; ++repeat) {
    // First pass warms caches; second pass is reported.
    for (int r = 0; r < 4; ++r) {
      const auto result =
          eval::run_experiment(rows[r].method, train, stream, config,
                               baselines::cooling_fan_paper_settings());
      measured[r] = result.runtime_seconds;
      if (rows[r].method == eval::Method::kBaseline) {
        baseline_seconds = result.runtime_seconds;
      }
    }
  }
  for (int r = 0; r < 4; ++r) {
    table.add_row({rows[r].label, util::fmt(measured[r] * 1e3, 1),
                   util::fmt(measured[r] / baseline_seconds, 2) + "x",
                   rows[r].paper});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Expected shape: SPLL slowest (k-means + bootstrap at fit and "
              "refit); proposed\nand QuantTree within a small factor of the "
              "baseline.\n");
  return 0;
}
