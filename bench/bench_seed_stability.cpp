// Statistical-rigor bench: the Table 2 quantities re-measured across
// independent stream seeds, reported as mean +- std. A reproduction that
// only matches the paper on one lucky seed proves little; this bench shows
// the shape claims hold distributionally.
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"
#include "baselines/experiment.hpp"

using namespace edgedrift;

namespace {

struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
};

Stats stats_of(const std::vector<double>& values) {
  Stats s;
  if (values.empty()) return s;
  for (const double v : values) s.mean += v;
  s.mean /= static_cast<double>(values.size());
  for (const double v : values) {
    s.stddev += (v - s.mean) * (v - s.mean);
  }
  s.stddev = std::sqrt(s.stddev / static_cast<double>(values.size()));
  return s;
}

std::string pm(const Stats& s, int digits = 1) {
  return util::fmt(s.mean, digits) + " +- " + util::fmt(s.stddev, digits);
}

}  // namespace

int main() {
  constexpr int kSeeds = 5;
  std::printf("=== Seed stability: Table 2 quantities across %d stream "
              "seeds ===\n\n",
              kSeeds);

  // Shorter stream than the headline bench keeps the 5-seed sweep quick
  // while preserving the geometry (drift at the same relative position).
  data::NslKddLikeConfig data_config;
  data_config.train_size = 2000;
  data_config.test_size = 10000;
  data_config.drift_point = 3670;

  const eval::Method methods[] = {
      eval::Method::kQuantTree, eval::Method::kSpll, eval::Method::kBaseline,
      eval::Method::kProposed, eval::Method::kMultiWindow};

  util::Table table({"Method", "Accuracy (%) mean +- std",
                     "Delay mean +- std", "Detected", "False alarms"});
  for (const auto method : methods) {
    std::vector<double> accuracies;
    std::vector<double> delays;
    int detected = 0;
    int false_alarms = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      data::NslKddLike generator(data_config);
      util::Rng rng(1000 + seed);
      const data::Dataset train = generator.training(rng);
      const data::Dataset test = generator.test_stream(rng);
      auto config = bench::nsl_kdd_config(100);
      config.seed = static_cast<std::uint64_t>(seed) + 1;

      const auto result = eval::run_experiment(
          method, train, test, config, baselines::nsl_kdd_paper_settings());
      accuracies.push_back(result.accuracy.overall() * 100.0);
      const auto delay = result.detections.delay(data_config.drift_point);
      if (delay) {
        ++detected;
        delays.push_back(static_cast<double>(*delay));
      }
      false_alarms += static_cast<int>(
          result.detections.false_alarms(data_config.drift_point));
    }
    table.add_row({eval::method_name(method), pm(stats_of(accuracies)),
                   delays.empty() ? "-" : pm(stats_of(delays), 0),
                   std::to_string(detected) + "/" + std::to_string(kSeeds),
                   std::to_string(false_alarms)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Shape claims to verify distributionally: batch detectors detect at\n"
      "the first batch boundary on every seed (delay std 0); the proposed\n"
      "method detects on every seed, later and with seed-dependent delay\n"
      "(the paper's 843-sample figure sits inside our band); no method\n"
      "false-alarms. Per-seed drift severity varies, so accuracy means\n"
      "carry visible std — exactly why single-seed accuracy comparisons\n"
      "need this table behind them.\n");
  return 0;
}
