// Streaming engine throughput: single-sample process(), block-wise
// process_rows() (GEMM scoring through the batch kernels), and
// PipelineManager fanning N independent streams over the thread pool.
//
// There is no paper reference for this table — it quantifies the batched
// hot path and the multi-stream layer added on top of the reproduction:
// process_rows() is bit-identical to process() (tested), so any speedup
// is free, and manager throughput should scale with streams until the
// pool saturates.
// Pass `--json <path>` to also write an edgedrift-bench-v1 record file
// (see bench_json.hpp); ns_per_op is per processed sample.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/stopwatch.hpp"
#include "edgedrift/util/table.hpp"
#include "edgedrift/util/thread_pool.hpp"

using namespace edgedrift;

namespace {

double samples_per_second(std::size_t samples, double seconds) {
  return seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
}

bench::KernelRecord make_record(const std::string& name, std::size_t samples,
                                double seconds) {
  bench::KernelRecord rec;
  rec.name = name;
  rec.samples_per_second = samples_per_second(samples, seconds);
  rec.ns_per_op = samples > 0
                      ? seconds * 1e9 / static_cast<double>(samples)
                      : 0.0;
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::extract_json_path(argc, argv);
  std::vector<bench::KernelRecord> records;
  std::printf("=== Streaming engine throughput (NSL-KDD-like) ===\n\n");

  data::NslKddLike generator;
  util::Rng rng(2023);
  const data::Dataset train = generator.training(rng);
  const data::Dataset stream = generator.test_stream(rng);
  core::PipelineConfig config = bench::nsl_kdd_config().pipeline;
  config.input_dim = train.dim();

  util::Table table({"Mode", "Samples", "Time (ms)", "ksamples/s"});

  // Single-sample loop.
  double single_seconds = 0.0;
  {
    core::Pipeline pipeline(config);
    pipeline.fit(train.x, train.labels);
    util::Stopwatch clock;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      pipeline.process(stream.x.row(i));
    }
    single_seconds = clock.elapsed_seconds();
    table.add_row({"process() per sample", std::to_string(stream.size()),
                   util::fmt(single_seconds * 1e3, 1),
                   util::fmt(samples_per_second(stream.size(),
                                                single_seconds) / 1e3, 1)});
    records.push_back(
        make_record("process", stream.size(), single_seconds));
  }

  // Block-wise batched loop (whole stream handed over in blocks; the
  // pipeline chunks internally at config.max_batch_rows).
  for (const std::size_t block : {64UL, 256UL, 1024UL}) {
    core::Pipeline pipeline(config);
    pipeline.fit(train.x, train.labels);
    std::vector<core::PipelineStep> steps;
    util::Stopwatch clock;
    std::size_t produced = 0;
    for (std::size_t start = 0; start < stream.size(); start += block) {
      const std::size_t rows = std::min(block, stream.size() - start);
      steps.clear();
      pipeline.process_rows({stream.x, start, start + rows}, {}, steps);
      produced += steps.size();
    }
    const double seconds = clock.elapsed_seconds();
    table.add_row({"process_rows(block=" + std::to_string(block) + ")",
                   std::to_string(produced), util::fmt(seconds * 1e3, 1),
                   util::fmt(samples_per_second(produced, seconds) / 1e3,
                             1)});
    records.push_back(make_record(
        "process_rows/block=" + std::to_string(block), produced, seconds));
  }

  // Multi-stream manager: N copies of the stream, one pipeline each.
  for (const std::size_t streams : {2UL, 4UL, 8UL}) {
    core::PipelineManager manager(config, streams);
    for (std::size_t s = 0; s < streams; ++s) {
      manager.fit(s, train.x, train.labels);
    }
    util::Stopwatch clock;
    for (std::size_t s = 0; s < streams; ++s) {
      manager.submit_batch(s, stream.x);
    }
    manager.drain();
    const double seconds = clock.elapsed_seconds();
    const std::size_t total = manager.stats().totals().samples;
    table.add_row({"manager(" + std::to_string(streams) + " streams)",
                   std::to_string(total), util::fmt(seconds * 1e3, 1),
                   util::fmt(samples_per_second(total, seconds) / 1e3, 1)});
    records.push_back(make_record(
        "manager/streams=" + std::to_string(streams), total, seconds));
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("pool workers: %zu\n", util::ThreadPool::global().size());
  if (!json_path.empty() &&
      !bench::write_kernel_json(json_path, "bench_batch_throughput",
                                records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
