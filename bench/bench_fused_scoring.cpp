// Fused-vs-per-instance ensemble scoring: the PR-3 hot-path comparison.
//
// The multi-instance model scores a sample against all C autoencoder
// instances. The per-instance path projects the sample into hidden space
// once PER INSTANCE (C projections + C reconstructions); the fused path
// projects once and reconstructs every instance with a single matvec
// against the packed [L x C*n] ensemble beta — (1 + C) GEMV-equivalents
// instead of 2C, an expected 2C/(1+C) speedup that grows with C.
//
// Geometry is the paper's fan-anomaly configuration (d = 38, L = 22)
// swept across ensemble widths C in {2, 3, 5, 23}. The *F32 / *I8 variants
// run the same hot paths under the fp32 and int8 scoring tiers
// (linalg/numerics.hpp); StreamDensity rows report the scoring-replica
// bytes a gateway must hold per stream at each tier. `--json <path>` emits
// the edgedrift-bench-v1 schema (committed example: BENCH_model.json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/reference_instance.hpp"

namespace {

using namespace edgedrift;
using linalg::Matrix;

constexpr std::size_t kDim = 38;
constexpr std::size_t kHidden = 22;
constexpr std::size_t kProbeRows = 256;

struct BenchSetup {
  model::MultiInstanceModel model;
  Matrix probes;
};

BenchSetup make_setup(std::size_t num_labels,
                      linalg::NumericsTier tier =
                          linalg::NumericsTier::kExactF64) {
  util::Rng rng(42);
  auto projection =
      oselm::make_projection(kDim, kHidden, oselm::Activation::kSigmoid, rng);
  model::MultiInstanceModel model(num_labels, std::move(projection), 1e-2);
  Matrix train(num_labels * 60, kDim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % num_labels);
    for (std::size_t j = 0; j < kDim; ++j) {
      const double center =
          0.2 + 0.6 * static_cast<double>((labels[i] + j) % num_labels);
      train(i, j) = rng.gaussian(center, 0.2);
    }
  }
  model.init_train(train, labels);
  model.set_numerics_tier(tier);
  Matrix probes(kProbeRows, kDim);
  for (std::size_t i = 0; i < kProbeRows; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      probes(i, j) = rng.gaussian(0.5, 0.4);
    }
  }
  return BenchSetup{std::move(model), std::move(probes)};
}

/// Fused ensemble scoring: one shared hidden projection + one packed
/// matvec reconstructs all C instances.
void BM_ScoresFused(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c);
  model::BatchWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    setup.model.score_batch(linalg::ConstMatrixView(setup.probes.row(i)), ws);
    benchmark::DoNotOptimize(ws.scores.data());
    i = (i + 1) % kProbeRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoresFused)->Arg(2)->Arg(3)->Arg(5)->Arg(23);

/// Fused scoring under the fp32 tier: same shared projection, packed
/// matvec against the narrowed f32 beta replica (half the bandwidth,
/// twice the SIMD lanes of the f64 row above).
void BM_ScoresFusedF32(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c, linalg::NumericsTier::kFastF32);
  model::BatchWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    setup.model.score_batch(linalg::ConstMatrixView(setup.probes.row(i)), ws);
    benchmark::DoNotOptimize(ws.scores.data());
    i = (i + 1) % kProbeRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoresFusedF32)->Arg(2)->Arg(3)->Arg(5)->Arg(23);

/// Fused scoring under the int8 tier: per-sample hidden quantization +
/// int8 dot products dequantized through per-column scales.
void BM_ScoresFusedI8(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c, linalg::NumericsTier::kQuantI8);
  model::BatchWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    setup.model.score_batch(linalg::ConstMatrixView(setup.probes.row(i)), ws);
    benchmark::DoNotOptimize(ws.scores.data());
    i = (i + 1) % kProbeRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoresFusedI8)->Arg(2)->Arg(3)->Arg(5)->Arg(23);

/// The per-label reference path: one standalone autoencoder per label,
/// rebuilt from the model, each projecting and reconstructing on its own
/// (Autoencoder::score recomputes the hidden activation per label, exactly
/// what the pre-fusion scorer did).
void BM_ScoresPerInstance(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c);
  std::vector<oselm::Autoencoder> instances;
  for (std::size_t label = 0; label < c; ++label) {
    instances.push_back(oracle::reference_instance(setup.model, label));
  }
  std::vector<double> out(c);
  std::size_t i = 0;
  for (auto _ : state) {
    for (std::size_t label = 0; label < c; ++label) {
      out[label] = instances[label].score(setup.probes.row(i));
    }
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % kProbeRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoresPerInstance)->Arg(2)->Arg(3)->Arg(5)->Arg(23);

/// Fused predict-then-train: the hidden vector is shared between the
/// ensemble scorer and the winning instance's Sherman–Morrison step.
void BM_TrainClosestFused(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c);
  model::BatchWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.model.train_closest(setup.probes.row(i), ws));
    i = (i + 1) % kProbeRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainClosestFused)->Arg(2)->Arg(5)->Arg(23);

/// Fused batch scoring: one [rows x C*n] GEMM for the whole ensemble.
void BM_ScoreBatchFused(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c);
  model::BatchWorkspace ws;
  ws.reserve(kProbeRows, kDim, kHidden, c);
  for (auto _ : state) {
    setup.model.score_batch(setup.probes, ws);
    benchmark::DoNotOptimize(ws.scores.data());
  }
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}
BENCHMARK(BM_ScoreBatchFused)->Arg(2)->Arg(5)->Arg(23);

/// Batch scoring under the fp32 tier: hidden block narrowed once per
/// chunk, then an f32 GEMM against the f32 beta replica.
void BM_ScoreBatchFusedF32(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c, linalg::NumericsTier::kFastF32);
  model::BatchWorkspace ws;
  ws.reserve(kProbeRows, kDim, kHidden, c, linalg::NumericsTier::kFastF32);
  for (auto _ : state) {
    setup.model.score_batch(setup.probes, ws);
    benchmark::DoNotOptimize(ws.scores.data());
  }
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}
BENCHMARK(BM_ScoreBatchFusedF32)->Arg(2)->Arg(5)->Arg(23);

/// Batch scoring under the int8 tier: per-row hidden quantization + int8
/// GEMM with per-column scale dequantization.
void BM_ScoreBatchFusedI8(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  BenchSetup setup = make_setup(c, linalg::NumericsTier::kQuantI8);
  model::BatchWorkspace ws;
  ws.reserve(kProbeRows, kDim, kHidden, c, linalg::NumericsTier::kQuantI8);
  for (auto _ : state) {
    setup.model.score_batch(setup.probes, ws);
    benchmark::DoNotOptimize(ws.scores.data());
  }
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}
BENCHMARK(BM_ScoreBatchFusedI8)->Arg(2)->Arg(5)->Arg(23);

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      edgedrift::bench::KernelRecord rec;
      rec.name = run.benchmark_name();
      if (rec.name.find("F32") != std::string::npos) {
        rec.precision = "f32";
      } else if (rec.name.find("I8") != std::string::npos) {
        rec.precision = "i8";
      }
      rec.ns_per_op = run.GetAdjustedRealTime();  // Default unit: ns.
      const auto items = run.counters.find("items_per_second");
      rec.samples_per_second = items != run.counters.end()
                                   ? static_cast<double>(items->second)
                                   : (rec.ns_per_op > 0.0
                                          ? 1e9 / rec.ns_per_op
                                          : 0.0);
      records.push_back(std::move(rec));
    }
  }

  std::vector<edgedrift::bench::KernelRecord> records;
};

/// Scoring-replica footprint per stream at each tier: the bytes of beta a
/// gateway must keep resident per stream to score it. f64 carries the
/// packed [L x C*n] master; f32 the narrowed replica; i8 the code tiles
/// plus one float scale per packed column, both with their padding to
/// whole row quads and column groups (QuantizedMatrix::memory_bytes). (The
/// f64 master also stays resident in the f32/i8 tiers for training, but
/// scoring-only consumers — the replicated-stream case the density metric
/// is about — ship only the replica.)
void append_stream_density_rows(
    std::vector<edgedrift::bench::KernelRecord>& records) {
  for (const std::size_t c : {std::size_t{2}, std::size_t{5},
                              std::size_t{23}}) {
    const std::size_t packed_cols = c * kDim;
    const double f64_bytes =
        static_cast<double>(kHidden * packed_cols * sizeof(double));
    const double f32_bytes =
        static_cast<double>(kHidden * packed_cols * sizeof(float));
    linalg::QuantizedMatrix replica;
    linalg::quantize(Matrix(kHidden, packed_cols), replica);
    const double i8_bytes = static_cast<double>(replica.memory_bytes());
    const char* precisions[] = {"f64", "f32", "i8"};
    const double bytes[] = {f64_bytes, f32_bytes, i8_bytes};
    for (int t = 0; t < 3; ++t) {
      edgedrift::bench::KernelRecord rec;
      rec.name = "StreamDensity/" + std::to_string(c);
      rec.precision = precisions[t];
      rec.bytes_per_stream = bytes[t];
      records.push_back(std::move(rec));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = edgedrift::bench::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  append_stream_density_rows(reporter.records);
  if (!json_path.empty() &&
      !edgedrift::bench::write_kernel_json(json_path, "bench_fused_scoring",
                                           reporter.records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
