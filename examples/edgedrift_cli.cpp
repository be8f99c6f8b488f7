// edgedrift command-line runner: any method on any bundled (or CSV) stream.
//
//   $ ./example_edgedrift_cli --dataset nslkdd --method proposed --window 100
//   $ ./example_edgedrift_cli --dataset fan-gradual --method spll
//   $ ./example_edgedrift_cli --train-csv train.csv --test-csv test.csv
//         [continued] --method quanttree --drift-at 5000
//   $ ./example_edgedrift_cli --dataset nslkdd --method proposed
//         [continued] --series 500 --checkpoint /tmp/model.bin
//   $ ./example_edgedrift_cli --dataset nslkdd --streams 100000
//         [continued] --shards 4 --hot-streams 64 --pin-cores
//
// Options:
//   --dataset nslkdd | fan-sudden | fan-gradual | fan-reoccurring
//   --train-csv PATH / --test-csv PATH   (labels in the last column)
//   --method proposed | baseline | quanttree | spll | onlad | multiwindow
//   --detector KIND run any drift::DetectorKind by name (centroid,
//                   multiwindow, quanttree, spll, ddm, eddm, adwin,
//                   kswin, pagehinkley) through the pipeline; overrides
//                   --method
//   --recovery reconstruct | detect-only   (default reconstruct)
//   --numerics f64 | f32 | i8   scoring numerics tier     (default f64):
//                   f64 is the bit-exact reference; f32/i8 score against
//                   the packed-beta replicas under the error-bounded
//                   drift-decision-equivalence contract (applies to
//                   pipeline-backed methods and --detector runs)
//   --window N      proposed-method window size W        (default 100)
//   --drift-at N    true drift index for delay reporting  (dataset default)
//   --seed N        stream RNG seed                       (default 2023)
//   --series N      print windowed accuracy every N samples
//   --checkpoint P  save the fitted proposed pipeline to P (method=proposed)
//   --stats         print the runtime observability snapshot (counters,
//                   stage latency quantiles, drift journal) after the run;
//                   available for pipeline-backed methods (proposed,
//                   quanttree, spll, multiwindow) and any --detector
//   --stats-json P  write the snapshot as edgedrift-obs-v3 JSON to P
//
// Sweep subcommand — the scenario-grid detection matrix:
//
//   $ ./example_edgedrift_cli sweep --detectors all --json -
//   $ ./example_edgedrift_cli sweep --scenarios scenarios/ --detectors
//         [continued] centroid,ddm --filter abrupt,gradual --json out.json
//
//   sweep runs every requested drift detector over every scenario (the six
//   built-in presets, or each *.json ScenarioSpec in --scenarios DIR) and
//   scores the cells against the compiled ground truth: detection delay,
//   false-alarm rate per 1k clean samples, recovery accuracy, throughput.
//   --json PATH writes the versioned edgedrift-eval-v1 matrix ("-" =
//   stdout); without it a summary table prints. --filter csv keeps only
//   the named scenarios; --detectors is "all" or a csv of kind names.
//
//   --streams N     serve mode: register N streams with PipelineManager
//                   (stream 0 fitted, the rest seeded cold from it) and
//                   replay the test stream round-robin across them; reports
//                   aggregate throughput, residency and eviction counters.
//                   Proposed-method (centroid) pipelines only — the
//                   checkpoint format behind eviction requires it
//   --shards N      serve mode: independent core-affine shards  (default 1)
//   --hot-streams N serve mode: resident streams each shard keeps; evicted
//                   streams go to the cold store        (default 0 = all hot)
//   --pin-cores     serve mode: pin each shard's drain worker to a core
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/data/csv.hpp"
#include "edgedrift/drift/detector_factory.hpp"
#include "edgedrift/util/stopwatch.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/data/scenario.hpp"
#include "edgedrift/eval/experiment.hpp"
#include "edgedrift/eval/sweep.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/obs/snapshot.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/table.hpp"

using namespace edgedrift;

namespace {

struct Options {
  std::string dataset = "nslkdd";
  std::string train_csv;
  std::string test_csv;
  std::string method = "proposed";
  std::string detector;
  std::string recovery = "reconstruct";
  std::string numerics = "f64";
  std::size_t window = 100;
  std::optional<std::size_t> drift_at;
  std::uint64_t seed = 2023;
  std::size_t series = 0;
  std::string checkpoint;
  bool stats = false;
  std::string stats_json;
  std::size_t streams = 0;
  std::size_t shards = 1;
  std::size_t hot_streams = 0;
  bool pin_cores = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dataset nslkdd|fan-sudden|fan-gradual|"
               "fan-reoccurring]\n"
               "          [--train-csv PATH --test-csv PATH]\n"
               "          [--method proposed|baseline|quanttree|spll|onlad|multiwindow]\n"
               "          [--detector KIND] [--recovery reconstruct|"
               "detect-only]\n"
               "          [--numerics f64|f32|i8]\n"
               "          [--window N] [--drift-at N] [--seed N]\n"
               "          [--series N] [--checkpoint PATH]\n"
               "          [--stats] [--stats-json PATH]\n"
               "          [--streams N] [--shards N] [--hot-streams N]\n"
               "          [--pin-cores]\n",
               argv0);
  std::exit(2);
}

bool parse_options(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--dataset") {
      opts.dataset = next();
    } else if (arg == "--train-csv") {
      opts.train_csv = next();
    } else if (arg == "--test-csv") {
      opts.test_csv = next();
    } else if (arg == "--method") {
      opts.method = next();
    } else if (arg == "--detector") {
      opts.detector = next();
    } else if (arg == "--recovery") {
      opts.recovery = next();
    } else if (arg == "--numerics") {
      opts.numerics = next();
    } else if (arg == "--window") {
      opts.window = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--drift-at") {
      opts.drift_at = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--series") {
      opts.series = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--checkpoint") {
      opts.checkpoint = next();
    } else if (arg == "--stats") {
      opts.stats = true;
    } else if (arg == "--stats-json") {
      opts.stats_json = next();
    } else if (arg == "--streams") {
      opts.streams = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--shards") {
      opts.shards = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--hot-streams") {
      opts.hot_streams = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--pin-cores") {
      opts.pin_cores = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::optional<eval::Method> method_of(const std::string& name) {
  if (name == "proposed") return eval::Method::kProposed;
  if (name == "baseline") return eval::Method::kBaseline;
  if (name == "quanttree") return eval::Method::kQuantTree;
  if (name == "spll") return eval::Method::kSpll;
  if (name == "onlad") return eval::Method::kOnlad;
  if (name == "multiwindow") return eval::Method::kMultiWindow;
  return std::nullopt;
}

std::optional<core::RecoveryPolicy> recovery_of(const std::string& name) {
  if (name == "reconstruct") return core::RecoveryPolicy::kReconstruct;
  if (name == "detect-only") return core::RecoveryPolicy::kDetectOnly;
  return std::nullopt;
}

/// Streams any detector kind through the pipeline, mirroring what
/// eval::run_experiment collects. True labels feed only the error-rate
/// detectors (DDM/EDDM/ADWIN) and the accuracy accounting.
eval::ExperimentResult run_detector(drift::DetectorKind kind,
                                    const data::Dataset& train,
                                    const data::Dataset& test,
                                    const eval::ExperimentConfig& config,
                                    obs::Snapshot* obs_out = nullptr) {
  eval::ExperimentResult result;
  result.method = eval::Method::kProposed;

  core::PipelineConfig pc = config.pipeline;
  pc.input_dim = train.dim();
  pc.detector.kind = kind;
  pc.detector.quanttree = config.quanttree;
  pc.detector.spll = config.spll;
  pc.detector.windows = config.ensemble_windows;
  core::Pipeline pipeline(pc);
  pipeline.fit(train.x, train.labels);

  util::Stopwatch clock;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const core::PipelineStep step =
        pipeline.process(test.x.row(i), test.labels[i]);
    result.accuracy.record(static_cast<int>(step.prediction.label) ==
                           test.labels[i]);
    if (step.drift_detected) result.detections.record(i);
  }
  result.runtime_seconds = clock.elapsed_seconds();
  result.detector_memory_bytes = pipeline.detector_memory_bytes();
  result.model_memory_bytes = pipeline.model().memory_bytes();
  if (obs_out != nullptr) {
    obs_out->streams.push_back(pipeline.obs().snapshot(0));
  }
  return result;
}

/// Serve mode: replays the test stream round-robin across `--streams`
/// managed streams through the sharded serving layer (stream 0 fitted from
/// the training set, the rest seeded cold from it), then reports aggregate
/// throughput, residency and the eviction/restore counters.
int run_serve(const Options& opts, const data::Dataset& train,
              const data::Dataset& test,
              const eval::ExperimentConfig& config) {
  core::PipelineConfig pc = config.pipeline;
  pc.input_dim = train.dim();

  core::ManagerOptions mopts;
  mopts.shards = std::max<std::size_t>(1, opts.shards);
  mopts.hot_stream_budget = opts.hot_streams;
  mopts.pin_cores = opts.pin_cores;

  core::PipelineManager manager(pc, 1, mopts);
  manager.fit(0, train.x, train.labels);
  if (opts.streams > 1) manager.seed_cold_from(0, opts.streams - 1);

  util::Stopwatch clock;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const std::size_t id = i % opts.streams;
    core::SubmitStatus status = core::SubmitStatus::kOk;
    if (!manager.submit(id, test.x.row(i), test.labels[i], &status)) {
      std::fprintf(stderr, "submit to stream %zu failed (status %d)\n", id,
                   static_cast<int>(status));
      return 1;
    }
  }
  manager.drain();
  const double seconds = clock.elapsed_seconds();

  const obs::Snapshot snapshot = manager.stats();
  const core::PipelineStats totals = snapshot.totals();
  std::uint64_t evictions = 0;
  std::uint64_t restores = 0;
  std::uint64_t coalesced_gemms = 0;
  std::uint64_t coalesced_rows = 0;
  std::uint64_t coalesce_fallbacks = 0;
  bool pinned = !snapshot.shards.empty();
  for (const auto& sh : snapshot.shards) {
    evictions += sh.evictions;
    restores += sh.restores;
    coalesced_gemms += sh.coalesced_gemms;
    coalesced_rows += sh.coalesced_rows;
    coalesce_fallbacks += sh.coalesce_fallbacks;
    pinned = pinned && sh.pinned;
  }

  util::Table summary({"Metric", "Value"});
  summary.add_row({"registered streams",
                   std::to_string(manager.num_streams())});
  summary.add_row({"shards", std::to_string(manager.num_shards())});
  summary.add_row({"hot budget / shard",
                   opts.hot_streams > 0 ? std::to_string(opts.hot_streams)
                                        : std::string("unlimited")});
  summary.add_row({"resident streams",
                   std::to_string(manager.hot_streams())});
  summary.add_row({"cold streams", std::to_string(manager.cold_streams())});
  summary.add_row({"samples processed", std::to_string(totals.samples)});
  summary.add_row({"throughput",
                   util::fmt(static_cast<double>(test.size()) / seconds / 1e3,
                             1) +
                       " ksamples/s"});
  summary.add_row({"drift detections", std::to_string(totals.drifts)});
  summary.add_row({"evictions", std::to_string(evictions)});
  summary.add_row({"restores", std::to_string(restores)});
  summary.add_row({"mega-batch GEMMs", std::to_string(coalesced_gemms)});
  summary.add_row(
      {"rows / mega-batch",
       coalesced_gemms > 0
           ? util::fmt(static_cast<double>(coalesced_rows) /
                           static_cast<double>(coalesced_gemms),
                       1)
           : std::string("-")});
  summary.add_row({"coalesce fallbacks", std::to_string(coalesce_fallbacks)});
  summary.add_row({"workers pinned", pinned ? "yes" : "no"});
  std::printf("%s\n", summary.str().c_str());

  if (opts.stats) {
    std::printf("observability snapshot:\n%s\n", snapshot.to_text().c_str());
  }
  if (!opts.stats_json.empty()) {
    if (!snapshot.write_json(opts.stats_json, "edgedrift_cli")) {
      std::fprintf(stderr, "failed to write %s\n", opts.stats_json.c_str());
      return 1;
    }
    std::printf("observability snapshot written to %s\n",
                opts.stats_json.c_str());
  }
  return 0;
}

/// The detector kind behind a pipeline-backed method, nullopt for methods
/// that bypass the pipeline (baseline, onlad) and so have no obs snapshot.
std::optional<drift::DetectorKind> pipeline_kind_of(eval::Method method) {
  switch (method) {
    case eval::Method::kProposed:
      return drift::DetectorKind::kCentroid;
    case eval::Method::kQuantTree:
      return drift::DetectorKind::kQuantTree;
    case eval::Method::kSpll:
      return drift::DetectorKind::kSpll;
    case eval::Method::kMultiWindow:
      return drift::DetectorKind::kMultiWindow;
    default:
      return std::nullopt;
  }
}

// ------------------------------------------------------- sweep subcommand

/// Splits a comma-separated list ("a,b,c") into its items.
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t comma = csv.find(',', begin);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > begin) items.push_back(csv.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return items;
}

[[noreturn]] void sweep_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s sweep [--scenarios DIR] [--detectors all|k1,k2,...]"
               "\n"
               "          [--filter name1,name2,...] [--json PATH|-]\n"
               "          [--emit-presets DIR]\n",
               argv0);
  std::exit(2);
}

int run_sweep_command(int argc, char** argv) {
  std::string scenarios_dir;
  std::string detectors = "all";
  std::string filter;
  std::string json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) sweep_usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenarios") {
      scenarios_dir = next();
    } else if (arg == "--detectors") {
      detectors = next();
    } else if (arg == "--filter") {
      filter = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--emit-presets") {
      // Write every built-in preset spec as DIR/<name>.json and exit —
      // this is how the committed scenarios/ directory is produced.
      const std::filesystem::path dir = next();
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      for (const std::string_view name : data::scenario_preset_names()) {
        const std::string json =
            data::scenario_to_json(*data::scenario_preset(name));
        const std::filesystem::path path =
            dir / (std::string(name) + ".json");
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
          return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
      }
      return 0;
    } else {
      std::fprintf(stderr, "unknown sweep option: %s\n", arg.c_str());
      sweep_usage(argv[0]);
    }
  }

  // Scenario grid: every *.json spec in --scenarios DIR (sorted by path),
  // or the built-in presets.
  std::vector<data::ScenarioSpec> specs;
  if (scenarios_dir.empty()) {
    for (const std::string_view name : data::scenario_preset_names()) {
      specs.push_back(*data::scenario_preset(name));
    }
  } else {
    std::error_code ec;
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(scenarios_dir, ec)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path());
    }
    if (ec) {
      std::fprintf(stderr, "cannot read scenario dir %s: %s\n",
                   scenarios_dir.c_str(), ec.message().c_str());
      return 1;
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      std::string error;
      auto spec = data::load_scenario_file(path.string(), &error);
      if (!spec) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      specs.push_back(std::move(*spec));
    }
  }
  if (!filter.empty()) {
    const std::vector<std::string> keep = split_csv(filter);
    std::erase_if(specs, [&](const data::ScenarioSpec& s) {
      return std::find(keep.begin(), keep.end(), s.name) == keep.end();
    });
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no scenarios selected\n");
    return 1;
  }

  std::vector<drift::DetectorKind> kinds;
  if (detectors == "all") {
    kinds.assign(std::begin(drift::kAllDetectorKinds),
                 std::end(drift::kAllDetectorKinds));
  } else {
    for (const std::string& name : split_csv(detectors)) {
      const auto kind = drift::kind_from_name(name);
      if (!kind) {
        std::fprintf(stderr, "unknown detector: %s\n", name.c_str());
        return 1;
      }
      kinds.push_back(*kind);
    }
  }

  const eval::SweepResult result = eval::run_sweep(specs, kinds, {});

  if (!json_path.empty()) {
    const std::string json = eval::sweep_json(result);
    if (json_path == "-") {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("sweep matrix written to %s (%zu cells)\n",
                  json_path.c_str(), result.cells.size());
    }
    return 0;
  }

  util::Table table({"Scenario", "Detector", "Detected", "Mean delay",
                     "FA/1k", "Recovery acc", "krows/s"});
  for (const eval::SweepCell& c : result.cells) {
    const eval::ScenarioMetrics& m = c.metrics;
    table.add_row({c.scenario, std::string(drift::kind_name(c.kind)),
                   std::to_string(m.detected) + "/" +
                       std::to_string(m.drift_points),
                   m.detected > 0 ? util::fmt(m.mean_delay, 1)
                                  : std::string("-"),
                   util::fmt(m.false_alarm_rate_per_1k, 2),
                   util::fmt(m.recovery_accuracy * 100.0, 1) + " %",
                   util::fmt(c.throughput_rows_per_s / 1e3, 1)});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return run_sweep_command(argc, argv);
  }
  Options opts;
  if (!parse_options(argc, argv, opts)) usage(argv[0]);
  const auto method = method_of(opts.method);
  if (!method) usage(argv[0]);
  const auto recovery = recovery_of(opts.recovery);
  if (!recovery) usage(argv[0]);
  std::optional<drift::DetectorKind> detector_kind;
  if (!opts.detector.empty()) {
    detector_kind = drift::kind_from_name(opts.detector);
    if (!detector_kind) {
      std::fprintf(stderr, "unknown detector: %s\n", opts.detector.c_str());
      usage(argv[0]);
    }
  }

  // ------------------------------------------------------------------ data
  data::Dataset train, test;
  eval::ExperimentConfig config;
  if (!opts.train_csv.empty() || !opts.test_csv.empty()) {
    if (opts.train_csv.empty() || opts.test_csv.empty()) usage(argv[0]);
    data::CsvOptions csv;
    csv.label_column = -2;
    auto loaded_train = data::load_csv(opts.train_csv, csv);
    auto loaded_test = data::load_csv(opts.test_csv, csv);
    if (!loaded_train || !loaded_test) return 1;
    train = std::move(*loaded_train);
    test = std::move(*loaded_test);
    int max_label = 0;
    for (const int l : train.labels) max_label = std::max(max_label, l);
    config = eval::nsl_kdd_paper_config(opts.window);
    config.pipeline.num_labels = static_cast<std::size_t>(max_label) + 1;
    config.pipeline.input_dim = train.dim();
  } else if (opts.dataset == "nslkdd") {
    data::NslKddLike generator;
    util::Rng rng(opts.seed);
    train = generator.training(rng);
    test = generator.test_stream(rng);
    if (!opts.drift_at) opts.drift_at = generator.config().drift_point;
    config = eval::nsl_kdd_paper_config(opts.window);
  } else if (opts.dataset.rfind("fan-", 0) == 0) {
    data::CoolingFanLike generator;
    util::Rng rng(opts.seed);
    train = generator.training(rng);
    util::Rng stream_rng(opts.seed ^ 0x9e37ULL);
    if (opts.dataset == "fan-sudden") {
      test = generator.sudden_stream(stream_rng);
    } else if (opts.dataset == "fan-gradual") {
      test = generator.gradual_stream(stream_rng);
    } else if (opts.dataset == "fan-reoccurring") {
      test = generator.reoccurring_stream(stream_rng);
    } else {
      usage(argv[0]);
    }
    if (!opts.drift_at) opts.drift_at = generator.config().drift_point;
    config = eval::cooling_fan_paper_config(opts.window);
  } else {
    usage(argv[0]);
  }
  config.pipeline.window_size = opts.window;
  config.pipeline.recovery = *recovery;
  const auto tier = linalg::tier_from_name(opts.numerics);
  if (!tier) {
    std::fprintf(stderr, "unknown numerics tier: %s\n", opts.numerics.c_str());
    usage(argv[0]);
  }
  config.pipeline.numerics = *tier;
  config.seed = opts.seed;

  std::printf("dataset: %s (%zu train / %zu test, %zu features)\n",
              opts.dataset.c_str(), train.size(), test.size(), train.dim());
  if (detector_kind) {
    std::printf("detector: %s (recovery: %s)\n\n",
                std::string(drift::kind_name(*detector_kind)).c_str(),
                opts.recovery.c_str());
  } else {
    std::printf("method:  %s\n\n", eval::method_name(*method).c_str());
  }

  // ----------------------------------------------------------- serve mode
  if (opts.streams > 0) {
    if (*method != eval::Method::kProposed || detector_kind) {
      // Eviction serializes through the checkpoint format, which requires
      // the proposed method's centroid detector.
      std::fprintf(stderr,
                   "--streams serve mode supports only --method proposed\n");
      return 1;
    }
    return run_serve(opts, train, test, config);
  }

  // ------------------------------------------------------------------- run
  const bool want_stats = opts.stats || !opts.stats_json.empty();
  obs::Snapshot obs_snapshot;
  obs::Snapshot* obs_out = nullptr;
  std::optional<drift::DetectorKind> run_kind = detector_kind;
  if (want_stats && !run_kind) {
    // The experiment runner hides its pipeline; route pipeline-backed
    // methods through run_detector so the obs block is reachable.
    run_kind = pipeline_kind_of(*method);
    if (!run_kind) {
      std::fprintf(stderr,
                   "--stats is unavailable for --method %s (no pipeline)\n",
                   opts.method.c_str());
      return 1;
    }
  }
  if (want_stats) obs_out = &obs_snapshot;
  const eval::ExperimentResult result =
      run_kind
          ? run_detector(*run_kind, train, test, config, obs_out)
          : eval::run_experiment(*method, train, test, config);

  util::Table summary({"Metric", "Value"});
  summary.add_row({"overall accuracy",
                   util::fmt(result.accuracy.overall() * 100.0, 2) + " %"});
  summary.add_row({"runtime", util::fmt(result.runtime_seconds * 1e3, 1) +
                                  " ms"});
  summary.add_row({"detections", std::to_string(result.detections.count())});
  if (opts.drift_at) {
    const auto delay = result.detections.delay(*opts.drift_at);
    summary.add_row({"detection delay",
                     delay ? std::to_string(*delay) : std::string("-")});
    summary.add_row(
        {"false alarms",
         std::to_string(result.detections.false_alarms(*opts.drift_at))});
  }
  summary.add_row({"detector memory",
                   util::fmt_kb(result.detector_memory_bytes)});
  summary.add_row({"model memory", util::fmt_kb(result.model_memory_bytes)});
  std::printf("%s\n", summary.str().c_str());

  if (opts.stats) {
    std::printf("observability snapshot:\n%s\n",
                obs_snapshot.to_text().c_str());
  }
  if (!opts.stats_json.empty()) {
    if (!obs_snapshot.write_json(opts.stats_json, "edgedrift_cli")) {
      std::fprintf(stderr, "failed to write %s\n", opts.stats_json.c_str());
      return 1;
    }
    std::printf("observability snapshot written to %s\n",
                opts.stats_json.c_str());
  }

  if (opts.series > 0) {
    std::printf("windowed accuracy (every %zu samples):\n", opts.series);
    for (const double a : result.accuracy.windowed(opts.series)) {
      std::printf(" %.3f", a);
    }
    std::printf("\n");
  }

  // ---------------------------------------------------------- checkpointing
  if (!opts.checkpoint.empty()) {
    if (*method != eval::Method::kProposed) {
      std::fprintf(stderr,
                   "--checkpoint supports only --method proposed\n");
      return 1;
    }
    core::PipelineConfig pipeline_config = config.pipeline;
    pipeline_config.input_dim = train.dim();
    core::Pipeline pipeline(pipeline_config);
    pipeline.fit(train.x, train.labels);
    if (!io::save_pipeline_file(opts.checkpoint, pipeline)) {
      std::fprintf(stderr, "failed to write checkpoint %s\n",
                   opts.checkpoint.c_str());
      return 1;
    }
    std::printf("fitted pipeline checkpoint written to %s\n",
                opts.checkpoint.c_str());
  }
  return 0;
}
