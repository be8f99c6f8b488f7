// Figure 4 + Table 2 reproduction: accuracy over time and final accuracy /
// detection delay of the five methods on the NSL-KDD-like stream
// (2522 train / 22701 test, drift at sample 8333).
//
// Paper reference values (Table 2):
//   Quant Tree 96.8% / 296, SPLL 96.3% / 296, Baseline 83.5% / -,
//   ONLAD 65.7% / -, Proposed W=100 96.0% / 843, W=250 95.5% / 993,
//   W=1000 92.5% / 1263.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"
#include "baselines/experiment.hpp"

using namespace edgedrift;

namespace {

std::string delay_str(const eval::DetectionLog& log, std::size_t drift_at) {
  const auto delay = log.delay(drift_at);
  if (!delay.has_value()) return "-";
  return std::to_string(*delay);
}

void print_accuracy_series(const char* name,
                           const eval::StreamingAccuracy& accuracy,
                           std::size_t window) {
  std::printf("%s:", name);
  for (const double a : accuracy.windowed(window)) {
    std::printf(" %.3f", a);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Figure 4 / Table 2: NSL-KDD-like stream ===\n\n");

  data::NslKddLike generator;
  util::Rng rng(2023);
  const data::Dataset train = generator.training(rng);
  const data::Dataset test = generator.test_stream(rng);
  const std::size_t drift_at = generator.config().drift_point;
  std::printf("train=%zu test=%zu drift@%zu dim=%zu\n\n", train.size(),
              test.size(), drift_at, test.dim());

  util::Table table({"Method", "Accuracy (%)", "Delay", "Paper acc (%)",
                     "Paper delay"});

  struct PaperRow {
    const char* accuracy;
    const char* delay;
  };

  // The five methods of Section 4.2 plus the proposed window sweep.
  const auto run = [&](eval::Method method, std::size_t window,
                       const PaperRow& paper, const char* label) {
    const auto config = bench::nsl_kdd_config(window);
    const auto result = eval::run_experiment(
        method, train, test, config, baselines::nsl_kdd_paper_settings());
    table.add_row({label, util::fmt(result.accuracy.overall() * 100.0, 1),
                   delay_str(result.detections, drift_at), paper.accuracy,
                   paper.delay});
    return result;
  };

  const auto qt = run(eval::Method::kQuantTree, 100, {"96.8", "296"},
                      "Quant Tree");
  const auto spll = run(eval::Method::kSpll, 100, {"96.3", "296"}, "SPLL");
  const auto baseline = run(eval::Method::kBaseline, 100, {"83.5", "-"},
                            "Baseline (no detection)");
  const auto onlad = run(eval::Method::kOnlad, 100, {"65.7", "-"}, "ONLAD");
  const auto w100 = run(eval::Method::kProposed, 100, {"96.0", "843"},
                        "Proposed (W=100)");
  const auto w250 = run(eval::Method::kProposed, 250, {"95.5", "993"},
                        "Proposed (W=250)");
  const auto w1000 = run(eval::Method::kProposed, 1000, {"92.5", "1263"},
                         "Proposed (W=1000)");

  std::printf("--- Table 2 ---\n%s\n", table.str().c_str());

  std::printf("--- Figure 4: windowed accuracy (500-sample windows; drift "
              "after window %zu) ---\n",
              drift_at / 500);
  print_accuracy_series("quanttree ", qt.accuracy, 500);
  print_accuracy_series("spll      ", spll.accuracy, 500);
  print_accuracy_series("baseline  ", baseline.accuracy, 500);
  print_accuracy_series("onlad     ", onlad.accuracy, 500);
  print_accuracy_series("proposed  ", w100.accuracy, 500);
  (void)w250;
  (void)w1000;
  return 0;
}
