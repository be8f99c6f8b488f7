// Microkernel benchmarks for the numeric substrate: GEMM variants, the
// OS-ELM rank-1 sequential step, the i8 scoring row's tile and quantizer
// lanes, detector primitives.
// These are engineering benches (not a paper table); they justify the
// kernel choices DESIGN.md documents: rank-1 updates keep the per-sample
// cost at O(h^2) and batch paths amortize through the blocked GEMM.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/quant.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/mcu/static_pipeline.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/naive.hpp"
#include "oracle/oselm.hpp"

namespace {

using namespace edgedrift;
using linalg::Matrix;

/// 2*m*n*k GEMM flops as a rate counter; the JSON reporter turns it into
/// the gflops column.
void set_flops(benchmark::State& state, std::size_t flops_per_iter) {
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(flops_per_iter) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const Matrix a = Matrix::random_gaussian(n, n, rng);
  const Matrix b = Matrix::random_gaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  set_flops(state, 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128)->Arg(256);

// The pre-SIMD scalar GEMM, kept in-tree (linalg/naive.hpp) so the
// optimized-vs-scalar ratio is reproducible from one binary.
void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const Matrix a = Matrix::random_gaussian(n, n, rng);
  const Matrix b = Matrix::random_gaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::naive::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  set_flops(state, 2 * n * n * n);
}
BENCHMARK(BM_MatmulNaive)->Arg(32)->Arg(128)->Arg(256);

// Paper-scale projection GEMM: a 256-sample batch through d=128 inputs and
// h=128 hidden units (hidden_batch's H = X * A shape).
void BM_MatmulBatchProjection(benchmark::State& state) {
  util::Rng rng(1);
  const Matrix x = Matrix::random_gaussian(256, 128, rng);
  const Matrix a = Matrix::random_gaussian(128, 128, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(x, a));
  }
  set_flops(state, 2 * 256 * 128 * 128);
}
BENCHMARK(BM_MatmulBatchProjection)->Name("matmul 256x128x128");

void BM_MatmulBatchProjectionNaive(benchmark::State& state) {
  util::Rng rng(1);
  const Matrix x = Matrix::random_gaussian(256, 128, rng);
  const Matrix a = Matrix::random_gaussian(128, 128, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::naive::matmul(x, a));
  }
  set_flops(state, 2 * 256 * 128 * 128);
}
BENCHMARK(BM_MatmulBatchProjectionNaive)->Name("matmul 256x128x128 naive");

// Paper-scale matvec: the per-sample projection (rows = hidden, cols =
// input dim) and its transposed twin (beta^T h).
void BM_Matvec(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(10);
  const Matrix a = Matrix::random_gaussian(m, n, rng);
  std::vector<double> x(n), y(m);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    linalg::matvec(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  set_flops(state, 2 * m * n);
}
BENCHMARK(BM_Matvec)->Args({64, 128})->Args({128, 128});

void BM_MatvecNaive(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(10);
  const Matrix a = Matrix::random_gaussian(m, n, rng);
  std::vector<double> x(n), y(m);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    linalg::naive::matvec(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  set_flops(state, 2 * m * n);
}
BENCHMARK(BM_MatvecNaive)->Args({64, 128})->Args({128, 128});

void BM_MatvecTransposed(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(11);
  const Matrix a = Matrix::random_gaussian(m, n, rng);
  std::vector<double> x(m), y(n);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    linalg::matvec_transposed(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  set_flops(state, 2 * m * n);
}
// 22 x 874 and 22 x 76 are the packed-beta shapes the workloads score at
// C = 23 and C = 2 (L = 22, d = 38); f64 streams run them here.
BENCHMARK(BM_MatvecTransposed)
    ->Args({64, 128})
    ->Args({128, 128})
    ->Args({22, 874})
    ->Args({22, 76});

void BM_MatvecTransposedNaive(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(11);
  const Matrix a = Matrix::random_gaussian(m, n, rng);
  std::vector<double> x(m), y(n);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    linalg::naive::matvec_transposed(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  set_flops(state, 2 * m * n);
}
BENCHMARK(BM_MatvecTransposedNaive)
    ->Args({64, 128})
    ->Args({128, 128})
    ->Args({22, 874})
    ->Args({22, 76});

// The i8 scoring row's kernels at the shapes the i8 workloads run: the
// tile matvec at L x C*d = 22 x 874 (label-rich, C = 23) and 22 x 76
// (C = 2), each lane the build compiles called directly, and each
// activation-quantizer lane on a 22-long hidden row.
using I8TileLane = void (*)(const std::int8_t*, const std::int8_t*,
                            std::size_t, std::size_t, float, const float*,
                            float*);

void run_i8_tile_lane(benchmark::State& state, I8TileLane lane) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(12);
  linalg::QuantizedMatrix a;
  linalg::quantize(Matrix::random_gaussian(k, n, rng), a);
  std::vector<double> h(k);
  for (auto& v : h) v = rng.uniform();
  std::vector<std::int8_t> q(k);
  const float scale = linalg::quantize_vector(h, q);
  std::vector<float> y(n);
  for (auto _ : state) {
    lane(a.tiles.data(), q.data(), k, n, scale, a.scales.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_flops(state, 2 * k * n);
}

void BM_I8TilesPortable(benchmark::State& state) {
  run_i8_tile_lane(state, linalg::simd::i8_tiles_dequant_portable);
}
BENCHMARK(BM_I8TilesPortable)->Args({22, 874})->Args({22, 76});

#if defined(EDGEDRIFT_SIMD_AVX2)
void BM_I8TilesAvx2(benchmark::State& state) {
  run_i8_tile_lane(state, linalg::simd::i8_tiles_dequant_avx2);
}
BENCHMARK(BM_I8TilesAvx2)->Args({22, 874})->Args({22, 76});
#endif

#if defined(EDGEDRIFT_HAVE_I8_VNNI)
void BM_I8TilesVnni(benchmark::State& state) {
  if (!linalg::simd::i8_vnni_available()) {
    state.SkipWithError("host CPU lacks avx512vnni+avx512vl");
    return;
  }
  run_i8_tile_lane(state, linalg::simd::i8_tiles_dequant_vnni);
}
BENCHMARK(BM_I8TilesVnni)->Args({22, 874})->Args({22, 76});
#endif

using I8QuantLane = float (*)(const double*, std::int8_t*, std::size_t);

void run_i8_quant_lane(benchmark::State& state, I8QuantLane lane) {
  const auto k = static_cast<std::size_t>(state.range(0));
  util::Rng rng(13);
  std::vector<double> h(k);
  for (auto& v : h) v = rng.uniform();
  std::vector<std::int8_t> q(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lane(h.data(), q.data(), k));
    benchmark::DoNotOptimize(q.data());
    benchmark::ClobberMemory();
  }
}

void BM_I8QuantizePortable(benchmark::State& state) {
  run_i8_quant_lane(state, linalg::simd::i8_quantize_portable);
}
BENCHMARK(BM_I8QuantizePortable)->Arg(22);

#if defined(EDGEDRIFT_SIMD_AVX2)
void BM_I8QuantizeAvx2(benchmark::State& state) {
  run_i8_quant_lane(state, linalg::simd::i8_quantize_avx2);
}
BENCHMARK(BM_I8QuantizeAvx2)->Arg(22);
#endif

void BM_MatmulAtB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const Matrix a = Matrix::random_gaussian(n, n, rng);
  const Matrix b = Matrix::random_gaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul_at_b(a, b));
  }
}
BENCHMARK(BM_MatmulAtB)->Arg(128);

void BM_CholeskySpdInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  Matrix a = Matrix::random_gaussian(n, n, rng);
  Matrix spd = linalg::matmul_at_b(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::spd_inverse(spd));
  }
}
BENCHMARK(BM_CholeskySpdInverse)->Arg(22)->Arg(64);

// The paper's fast path: one rank-1 OS-ELM step (h = 22, d = 511).
void BM_OsElmSequentialStep(benchmark::State& state) {
  util::Rng rng(4);
  auto proj = oselm::make_projection(511, 22, oselm::Activation::kSigmoid,
                                     rng);
  oselm::OsElmConfig config;
  config.output_dim = 511;
  oselm::OsElm net(proj, config);
  net.init_sequential();
  std::vector<double> x(511);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    net.train(x, x);
  }
}
BENCHMARK(BM_OsElmSequentialStep)->Name("oselm rank-1 train (511-22-511)");

void BM_OsElmPredict(benchmark::State& state) {
  util::Rng rng(6);
  auto proj = oselm::make_projection(511, 22, oselm::Activation::kSigmoid,
                                     rng);
  oselm::OsElmConfig config;
  config.output_dim = 511;
  oselm::OsElm net(proj, config);
  net.init_sequential();
  std::vector<double> x(511), y(511);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    net.predict(x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_OsElmPredict)->Name("oselm predict (511-22-511)");

void BM_L1Distance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.gaussian();
  for (auto& v : b) v = rng.gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::l1_distance(a, b));
  }
}
BENCHMARK(BM_L1Distance)->Arg(38)->Arg(511);

void BM_RunningMeanUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  std::vector<double> mean(n), x(n);
  for (auto& v : x) v = rng.gaussian();
  std::size_t count = 1;
  for (auto _ : state) {
    linalg::running_mean_update(mean, x, count++);
    benchmark::DoNotOptimize(mean.data());
  }
}
BENCHMARK(BM_RunningMeanUpdate)->Arg(38)->Arg(511);

// Double-precision Pipeline vs the float32 MCU profile on the same fitted
// state. On a desktop FPU doubles are native, so the float32 path is about
// equal wall-clock here; its wins are memory (half the state, the Table 4
// quantity) and the software-float arithmetic of FPU-less MCUs like the
// Pico's Cortex-M0+, where every float64 op is roughly 2x a float32 op.
struct DeviceFixture {
  core::Pipeline reference;
  mcu::StaticPipeline<38, 22, 2> device;
  std::vector<double> sample_d = std::vector<double>(38);
  std::vector<float> sample_f = std::vector<float>(38);

  DeviceFixture() : reference(make_config()) {
    util::Rng rng(9);
    Matrix train(400, 38);
    std::vector<int> labels(400);
    for (std::size_t i = 0; i < 400; ++i) {
      labels[i] = static_cast<int>(i % 2);
      for (std::size_t j = 0; j < 38; ++j) {
        train(i, j) = rng.gaussian(labels[i] == 0 ? 0.2 : 1.2, 0.2);
      }
    }
    reference.fit(train, labels);
    if (!device.load(reference)) std::abort();
    for (std::size_t j = 0; j < 38; ++j) {
      sample_d[j] = rng.gaussian(0.2, 0.2);
      sample_f[j] = static_cast<float>(sample_d[j]);
    }
  }

  static core::PipelineConfig make_config() {
    core::PipelineConfig config;
    config.num_labels = 2;
    config.input_dim = 38;
    config.hidden_dim = 22;
    return config;
  }
};

DeviceFixture& device_fixture() {
  static DeviceFixture f;
  return f;
}

void BM_PipelineProcessDouble(benchmark::State& state) {
  auto& f = device_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.reference.process(f.sample_d));
  }
}
BENCHMARK(BM_PipelineProcessDouble)
    ->Name("pipeline process/sample (double, host)");

void BM_PipelineProcessFloat32(benchmark::State& state) {
  auto& f = device_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.device.process(f.sample_f));
  }
}
BENCHMARK(BM_PipelineProcessFloat32)
    ->Name("pipeline process/sample (float32, MCU profile)");

/// Console output as usual, plus a record per run for the --json reporter.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      edgedrift::bench::KernelRecord rec;
      rec.name = run.benchmark_name();
      if (rec.name.rfind("BM_I8", 0) == 0) rec.precision = "i8";
      rec.ns_per_op = run.GetAdjustedRealTime();  // Default unit: ns.
      const auto items = run.counters.find("items_per_second");
      rec.samples_per_second = items != run.counters.end()
                                   ? static_cast<double>(items->second)
                                   : (rec.ns_per_op > 0.0
                                          ? 1e9 / rec.ns_per_op
                                          : 0.0);
      const auto flops = run.counters.find("flops");
      if (flops != run.counters.end()) {
        rec.gflops = static_cast<double>(flops->second) / 1e9;
      }
      records.push_back(std::move(rec));
    }
  }

  std::vector<edgedrift::bench::KernelRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = edgedrift::bench::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !edgedrift::bench::write_kernel_json(json_path, "bench_microkernels",
                                           reporter.records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
