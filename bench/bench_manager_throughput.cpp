// Serving-layer throughput: PipelineManager ring-buffer ingestion with the
// burst-wise process_rows() drain, over fitted pipelines and a stationary
// pre-drift stream (drain cost is the object of measurement, so no recovery
// may intervene), best-of over reps. Every ablation below runs its modes
// inside the same binary, interleaved rep by rep — the noise-mitigation
// protocol for single-core containers. The pre-ring per-sample drain this
// bench once compared against is gone; its last numbers are the
// drain=sample records of BENCH_manager.json as committed at 60a5f16 (git
// history).
//
// Three configurations span the regime: NSL-KDD-like (d=38, C=2), where
// the per-sample matvec path is already near memory-bound and the batch
// win comes mostly from amortized bookkeeping; the NSL-KDD full
// attack-label split (d=38, C=23), where one fused GEMM replaces 23
// per-instance reconstructions and the batch advantage is largest; and
// the cooling-fan spectra (d=511, C=1), the wide-input single-instance
// extreme.
//
// The batched drain's advantage is a property of the SIMD backends: the
// fused GEMM amortizes its packing/blocking overhead through wide FMA
// lanes, so on the portable scalar backend the per-sample matvec path can
// win instead. Compare builds before reading the speedup column.
//
// Pass `--json <path>` to write an edgedrift-bench-v1 record file
// (see bench_json.hpp); ns_per_op is per processed sample, aggregate
// across streams. BENCH_manager.json in the repo root is a committed
// example from the native build.
//
// The nsl-kdd 8-stream section also runs an obs-overhead ablation: the
// same batched drain with the observability layer's runtime gate on vs
// off, interleaved. The counters count on both sides, so the pair measures
// the gated part: latency clock reads, histograms and the drift journal.
// The two records (drain=batch/obs=on|off) feed
// tools/check_obs_overhead.py, which perf-smoke CI uses to pin that cost
// under its budget. Pass `--stats-json <path>` to also
// dump the obs=on manager's edgedrift-obs-v3 snapshot.
//
// The nsl-kdd section also carries the coalescing ablation: a seeded
// projection group of 16/64 resident streams drained at 1-8 pending
// rows/stream with the cross-stream planner on vs off
// (ManagerOptions::coalesce). The resident=64 records feed
// tools/check_coalesce_gain.py, which perf-smoke CI uses to gate the
// mega-batch drain's advantage at high density.
//
// The nsl-kdd-c23 section additionally sweeps the serving shards (1/2/4/8
// core-pinned workers × hot=all|half) — those records feed
// tools/check_shard_scaling.py, which gates drain-scaling efficiency
// normalized by the runner's core count — and a final stream-density
// section seeds 100k streams cold from one template and measures
// end-to-end restore+drain+evict throughput over a rotating touched
// subset under a 64-stream hot budget.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/data/stream.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/stopwatch.hpp"
#include "edgedrift/util/table.hpp"
#include "edgedrift/util/thread_pool.hpp"

using namespace edgedrift;

namespace {

constexpr std::size_t kReps = 5;

struct ModeRun {
  std::string label;
  core::ManagerOptions options;
  std::unique_ptr<core::PipelineManager> manager;
  double best_samples_per_second = 0.0;
};

double run_rep(core::PipelineManager& manager, const linalg::Matrix& stream) {
  util::Stopwatch clock;
  for (std::size_t s = 0; s < manager.num_streams(); ++s) {
    manager.submit_batch(s, stream);
  }
  manager.drain();
  const double seconds = clock.elapsed_seconds();
  return seconds > 0.0 ? static_cast<double>(manager.num_streams() *
                                             stream.rows()) /
                             seconds
                       : 0.0;
}

bench::KernelRecord make_record(const std::string& name, double sps,
                                const char* precision = "f64") {
  bench::KernelRecord rec;
  rec.name = name;
  rec.precision = precision;
  rec.samples_per_second = sps;
  rec.ns_per_op = sps > 0.0 ? 1e9 / sps : 0.0;
  return rec;
}

/// Coalescing ablation: `resident` streams seeded from one fitted template
/// (so the whole population is one projection group) each carrying `burst`
/// pending rows per drain cycle — the high-density regime the drain planner
/// targets, where the per-stream path runs one tiny projection GEMM per
/// stream. kManual dispatch so every drain() is exactly one planning pass
/// over all resident streams; coalesce on vs off interleaved rep by rep,
/// best-of. `tier` is the numerics tier of the whole comparison (records
/// carry it in `precision`).
void run_coalesce_ablation(const core::PipelineConfig& base,
                           const data::Dataset& train,
                           const linalg::Matrix& stream,
                           std::size_t resident, std::size_t burst,
                           linalg::NumericsTier tier, const char* precision,
                           util::Table& table,
                           std::vector<bench::KernelRecord>& records) {
  constexpr std::size_t kSamplesPerRep = 8192;
  constexpr std::size_t kBlockRotation = 32;
  const std::size_t rounds =
      std::max<std::size_t>(1, kSamplesPerRep / (resident * burst));
  core::PipelineConfig config = base;
  config.numerics = tier;

  // Rotating pre-built submit blocks: no per-submit Matrix construction on
  // the measured path, modest variety so the windows don't degenerate.
  std::vector<linalg::Matrix> blocks;
  for (std::size_t b = 0; b < kBlockRotation; ++b) {
    linalg::Matrix block(burst, stream.cols());
    for (std::size_t r = 0; r < burst; ++r) {
      block.set_row(r, stream.row((b * burst + r) % stream.rows()));
    }
    blocks.push_back(std::move(block));
  }

  std::vector<ModeRun> modes(2);
  modes[0].label = "coalesce=on";
  modes[1].label = "coalesce=off";
  for (std::size_t m = 0; m < modes.size(); ++m) {
    core::ManagerOptions options;
    options.dispatch = core::DispatchMode::kManual;
    options.queue_capacity = std::max<std::size_t>(64, burst);
    options.coalesce = m == 0;
    modes[m].options = options;
    modes[m].manager =
        std::make_unique<core::PipelineManager>(config, 1, options);
    modes[m].manager->fit(0, train.x, train.labels);
    modes[m].manager->seed_cold_from(0, resident - 1);
    // Warm every seeded stream hot once so the measured reps never pay the
    // first-touch restore.
    for (std::size_t s = 0; s < resident; ++s) {
      modes[m].manager->submit_batch(s, blocks[0]);
    }
    modes[m].manager->drain();
    for (std::size_t s = 0; s < resident; ++s) {
      modes[m].manager->take_steps(s);
    }
  }

  // More reps than the stream-count sweeps, and median instead of best-of:
  // the on/off ratio feeds a CI gate (tools/check_coalesce_gain.py), and a
  // best-of ratio is biased by whichever mode draws the luckier outlier —
  // the interleaved medians estimate the typical cost of each mode.
  constexpr std::size_t kCoalesceReps = 9;
  std::array<std::vector<double>, 2> rep_sps;
  for (std::size_t rep = 0; rep < kCoalesceReps; ++rep) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      util::Stopwatch clock;
      for (std::size_t round = 0; round < rounds; ++round) {
        const linalg::Matrix& block = blocks[round % kBlockRotation];
        for (std::size_t s = 0; s < resident; ++s) {
          modes[m].manager->submit_batch(s, block);
        }
        modes[m].manager->drain();
      }
      const double seconds = clock.elapsed_seconds();
      const double sps =
          seconds > 0.0
              ? static_cast<double>(resident * burst * rounds) / seconds
              : 0.0;
      rep_sps[m].push_back(sps);
      for (std::size_t s = 0; s < resident; ++s) {
        modes[m].manager->take_steps(s);
      }
    }
  }
  for (std::size_t m = 0; m < modes.size(); ++m) {
    auto& reps = rep_sps[m];
    auto mid = reps.begin() + reps.size() / 2;
    std::nth_element(reps.begin(), mid, reps.end());
    modes[m].best_samples_per_second = *mid;
  }

  const std::string prefix = "nsl-kdd/coalesce/resident=" +
                             std::to_string(resident) +
                             "/burst=" + std::to_string(burst);
  const double off = modes[1].best_samples_per_second;
  for (const ModeRun& m : modes) {
    const double sps = m.best_samples_per_second;
    table.add_row({"nsl-kdd",
                   std::to_string(resident) + std::string("/") + precision,
                   "burst=" + std::to_string(burst) + "/" + m.label,
                   util::fmt(sps > 0.0 ? 1e9 / sps : 0.0, 0),
                   util::fmt(sps / 1e3, 1),
                   util::fmt(off > 0.0 ? sps / off : 0.0, 2)});
    records.push_back(
        make_record(prefix + "/" + m.label, sps, precision));
  }
  const obs::Snapshot snap = modes[0].manager->stats();
  const obs::ShardSnapshot& sh = snap.shards[0];
  std::printf(
      "coalesce resident=%zu burst=%zu (%s): %llu mega-batch GEMMs, "
      "%.1f rows/GEMM, %llu fallback streams\n",
      resident, burst, precision,
      static_cast<unsigned long long>(sh.coalesced_gemms), sh.rows_per_gemm(),
      static_cast<unsigned long long>(sh.coalesce_fallbacks));
}

/// Best-of throughput of the batched drain at one stream count; appends a
/// table row and a JSON record under `prefix`.
void run_drain(const std::string& prefix, const core::PipelineConfig& config,
               const data::Dataset& train, const linalg::Matrix& stream,
               std::size_t streams, util::Table& table,
               std::vector<bench::KernelRecord>& records) {
  // The ring holds the whole stream so ingestion never backpressures.
  core::ManagerOptions options;
  options.queue_capacity = stream.rows();

  // Recovery must not intervene (its sequential retraining would swamp the
  // drain cost), so detections — if the detector fires on a noisy
  // stationary window — only reset the detector.
  core::PipelineConfig frozen_config = config;
  frozen_config.recovery = core::RecoveryPolicy::kDetectOnly;

  core::PipelineManager manager(frozen_config, streams, options);
  for (std::size_t s = 0; s < streams; ++s) {
    manager.fit(s, train.x, train.labels);
  }
  double best = 0.0;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    best = std::max(best, run_rep(manager, stream));
    for (std::size_t s = 0; s < streams; ++s) manager.take_steps(s);
  }
  table.add_row({prefix, std::to_string(streams), "batch",
                 util::fmt(best > 0.0 ? 1e9 / best : 0.0, 0),
                 util::fmt(best / 1e3, 1), "-"});
  records.push_back(make_record(
      prefix + "/streams=" + std::to_string(streams) + "/drain=batch", best));
  const core::StreamTelemetry& t = manager.telemetry(0);
  std::printf(
      "%s @%zu streams (batch): high-water %zu, %zu bursts, "
      "busy drain-rate %.0f ksamples/s\n",
      prefix.c_str(), streams,
      static_cast<std::size_t>(manager.stats(0).ring_high_water),
      t.drain_bursts, t.samples_per_second() / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::extract_json_path(argc, argv);
  const std::string stats_json_path =
      bench::extract_path_flag(argc, argv, "--stats-json");
  std::vector<bench::KernelRecord> records;
  std::printf("=== Serving-layer throughput (stationary streams) ===\n");
  std::printf("pool workers: %zu, reps: %zu (interleaved, best-of)\n\n",
              util::ThreadPool::global().size(), kReps);

  util::Table table({"Config", "Streams", "Drain", "best ns/sample",
                     "ksamples/s", "speedup"});

  // NSL-KDD-like (d=38, C=2): training block plus a stationary pre-drift
  // stream — a second draw of the training concept, so the drain never
  // leaves the frozen batch path and every rep sees identical state.
  {
    data::NslKddLikeConfig stream_config;
    stream_config.train_size = 6000;
    util::Rng train_rng(2023);
    util::Rng stream_rng(2024);
    const data::Dataset train = data::NslKddLike().training(train_rng);
    const data::Dataset stationary =
        data::NslKddLike(stream_config).training(stream_rng);
    core::PipelineConfig config = bench::nsl_kdd_config().pipeline;
    config.input_dim = train.dim();

    for (const std::size_t streams : {1UL, 8UL}) {
      run_drain("nsl-kdd", config, train, stationary.x, streams, table,
                records);
    }

    // Drain chunk ablation at 8 streams: the stream config's max_batch_rows
    // caps each drain burst. Same recovery-free protocol as run_drain.
    config.recovery = core::RecoveryPolicy::kDetectOnly;
    for (const std::size_t chunk : {32UL, 512UL}) {
      core::ManagerOptions options;
      options.queue_capacity = stationary.x.rows();
      core::PipelineConfig chunk_config = config;
      chunk_config.max_batch_rows = chunk;
      core::PipelineManager manager(chunk_config, 8, options);
      for (std::size_t s = 0; s < 8; ++s) {
        manager.fit(s, train.x, train.labels);
      }
      double best = 0.0;
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        best = std::max(best, run_rep(manager, stationary.x));
        for (std::size_t s = 0; s < 8; ++s) manager.take_steps(s);
      }
      table.add_row({"nsl-kdd", "8", "batch/chunk=" + std::to_string(chunk),
                     util::fmt(best > 0.0 ? 1e9 / best : 0.0, 0),
                     util::fmt(best / 1e3, 1), "-"});
      records.push_back(
          make_record("nsl-kdd/streams=8/drain=batch/chunk=" +
                          std::to_string(chunk),
                      best));
    }

    // Obs-overhead ablation at 8 streams, batch drain: identical protocol
    // with the observability layer's runtime gate on vs off.
    {
      core::ManagerOptions options;
      options.queue_capacity = stationary.x.rows();
      core::PipelineConfig off_config = config;
      off_config.obs.enabled = false;
      std::vector<ModeRun> modes(2);
      modes[0].label = "obs=on";
      modes[1].label = "obs=off";
      for (std::size_t m = 0; m < modes.size(); ++m) {
        modes[m].options = options;
        modes[m].manager = std::make_unique<core::PipelineManager>(
            m == 0 ? config : off_config, 8, options);
        for (std::size_t s = 0; s < 8; ++s) {
          modes[m].manager->fit(s, train.x, train.labels);
        }
      }
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        for (ModeRun& m : modes) {
          const double sps = run_rep(*m.manager, stationary.x);
          m.best_samples_per_second =
              std::max(m.best_samples_per_second, sps);
          for (std::size_t s = 0; s < 8; ++s) m.manager->take_steps(s);
        }
      }
      for (const ModeRun& m : modes) {
        const double sps = m.best_samples_per_second;
        table.add_row({"nsl-kdd", "8", "batch/" + m.label,
                       util::fmt(sps > 0.0 ? 1e9 / sps : 0.0, 0),
                       util::fmt(sps / 1e3, 1), "-"});
        records.push_back(
            make_record("nsl-kdd/streams=8/drain=batch/" + m.label, sps));
      }
      if (!stats_json_path.empty()) {
        if (modes[0].manager->stats().write_json(stats_json_path,
                                                 "bench_manager_throughput")) {
          std::printf("obs snapshot written to %s\n",
                      stats_json_path.c_str());
        } else {
          std::fprintf(stderr, "cannot write %s\n", stats_json_path.c_str());
        }
      }
    }

    // Coalescing ablation: resident-streams sweep at 1-8 pending
    // samples/stream — the high-density drain regime. Every resident
    // population is one seeded projection group; coalesce=off is the
    // per-stream drain over identical submissions. The 64-resident rows
    // feed tools/check_coalesce_gain.py (perf-smoke gates coalesced >=
    // 1.3x per-stream there); the i8 rows show the gain carries to the
    // density tier.
    {
      core::PipelineConfig frozen = config;
      frozen.recovery = core::RecoveryPolicy::kDetectOnly;
      for (const std::size_t resident : {16UL, 64UL}) {
        for (const std::size_t burst : {1UL, 4UL, 8UL}) {
          run_coalesce_ablation(frozen, train, stationary.x, resident, burst,
                                linalg::NumericsTier::kExactF64, "f64", table,
                                records);
        }
      }
      for (const std::size_t burst : {1UL, 8UL}) {
        run_coalesce_ablation(frozen, train, stationary.x, 64, burst,
                              linalg::NumericsTier::kQuantI8, "i8", table,
                              records);
      }
    }
  }

  // NSL-KDD full attack-label split (d=38, C=23 — the label-rich regime
  // bench_fused_scoring tracks): with 23 OS-ELM instances behind one packed
  // beta, the fused GEMM drain amortizes what the per-sample path pays per
  // instance, so the batch advantage is largest here.
  {
    util::Rng mean_rng(77);
    std::vector<data::GaussianClass> classes(23);
    for (auto& cls : classes) {
      cls.mean.resize(data::NslKddLike::kDim);
      for (auto& m : cls.mean) m = mean_rng.uniform(-2.0, 2.0);
      cls.stddev = {0.4};
      cls.weight = 1.0;
    }
    const data::GaussianConcept source(classes);
    util::Rng train_rng(2027);
    util::Rng stream_rng(2028);
    const data::Dataset train = data::draw(source, 2300, train_rng);
    const data::Dataset stationary = data::draw(source, 6000, stream_rng);
    core::PipelineConfig config = bench::nsl_kdd_config().pipeline;
    config.input_dim = train.dim();
    config.num_labels = classes.size();

    run_drain("nsl-kdd-c23", config, train, stationary.x, 8, table, records);

    // Shard sweep at 8 streams, batch drain: 1/2/4/8 core-pinned shards,
    // each at two hot ratios — hot=all (no eviction, pure drain scaling)
    // and hot=half (the per-shard budget halved, so every rep pays
    // evict/restore churn on top of the drain). All eight managers run
    // interleaved rep by rep, best-of. The drain work is per-stream
    // independent, so the hot=all speedup should track min(shards, cores);
    // perf-smoke normalizes exactly that way (tools/check_shard_scaling.py)
    // and this host's core count is printed with the records.
    {
      core::PipelineConfig frozen = config;
      frozen.recovery = core::RecoveryPolicy::kDetectOnly;
      constexpr std::size_t kStreams = 8;
      std::vector<ModeRun> sweep;
      for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
        for (const bool limit_hot : {false, true}) {
          ModeRun m;
          m.label = "shards=" + std::to_string(shards) +
                    (limit_hot ? "/hot=half" : "/hot=all");
          m.options.queue_capacity = stationary.x.rows();
          m.options.shards = shards;
          m.options.pin_cores = true;
          if (limit_hot) {
            // Half the per-shard stream load, at least one resident.
            m.options.hot_stream_budget =
                std::max<std::size_t>(1, kStreams / (2 * shards));
          }
          m.manager = std::make_unique<core::PipelineManager>(
              frozen, kStreams, m.options);
          for (std::size_t s = 0; s < kStreams; ++s) {
            m.manager->fit(s, train.x, train.labels);
          }
          sweep.push_back(std::move(m));
        }
      }
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        for (ModeRun& m : sweep) {
          const double sps = run_rep(*m.manager, stationary.x);
          m.best_samples_per_second =
              std::max(m.best_samples_per_second, sps);
          for (std::size_t s = 0; s < kStreams; ++s) m.manager->take_steps(s);
        }
      }
      const double one_shard = sweep[0].best_samples_per_second;
      for (const ModeRun& m : sweep) {
        const double sps = m.best_samples_per_second;
        table.add_row({"nsl-kdd-c23", "8", "batch/" + m.label,
                       util::fmt(sps > 0.0 ? 1e9 / sps : 0.0, 0),
                       util::fmt(sps / 1e3, 1),
                       util::fmt(one_shard > 0.0 ? sps / one_shard : 0.0,
                                 2)});
        records.push_back(make_record(
            "nsl-kdd-c23/streams=8/drain=batch/" + m.label, sps));
      }
      const obs::Snapshot snap = sweep.back().manager->stats();
      std::uint64_t evictions = 0;
      std::uint64_t restores = 0;
      bool pinned = true;
      for (const obs::ShardSnapshot& sh : snap.shards) {
        evictions += sh.evictions;
        restores += sh.restores;
        pinned = pinned && sh.pinned;
      }
      std::printf(
          "shard sweep: %u cores, shards=8/hot=half saw %llu evictions / "
          "%llu restores, workers pinned: %s\n",
          std::thread::hardware_concurrency(),
          static_cast<unsigned long long>(evictions),
          static_cast<unsigned long long>(restores),
          pinned ? "yes" : "no");
    }
  }

  // Stream-density run: registered-stream scale is bounded by cold-store
  // bytes, not resident models. One fitted template seeds 100k streams
  // cold (seed_cold_from: one checkpoint blob shared by the whole
  // population); a rotating subset is then touched with short blocks, so
  // every touch pays a restore and the budget keeps evicting behind it.
  // Reported throughput is end-to-end: restore + ingest + drain + evict.
  {
    constexpr std::size_t kRegistered = 100000;
    constexpr std::size_t kTouched = 512;
    constexpr std::size_t kBlock = 32;
    constexpr std::size_t kPasses = 2;

    data::NslKddLikeConfig stream_config;
    stream_config.train_size = 6000;
    util::Rng train_rng(2033);
    util::Rng stream_rng(2034);
    const data::Dataset train = data::NslKddLike().training(train_rng);
    const data::Dataset stationary =
        data::NslKddLike(stream_config).training(stream_rng);
    core::PipelineConfig config = bench::nsl_kdd_config().pipeline;
    config.input_dim = train.dim();
    config.recovery = core::RecoveryPolicy::kDetectOnly;

    core::ManagerOptions options;
    options.queue_capacity = kBlock;
    options.shards = 4;
    options.hot_stream_budget = 16;  // 64 hot across 4 shards.
    core::PipelineManager manager(config, 1, options);
    manager.fit(0, train.x, train.labels);
    const std::size_t first = manager.seed_cold_from(0, kRegistered - 1);

    linalg::Matrix block(kBlock, train.dim());
    for (std::size_t r = 0; r < kBlock; ++r) {
      block.set_row(r, stationary.x.row(r));
    }
    const std::size_t stride = (kRegistered - 1) / kTouched;
    util::Stopwatch clock;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (std::size_t t = 0; t < kTouched; ++t) {
        manager.submit_batch(first + t * stride, block);
      }
      manager.drain();
    }
    const double seconds = clock.elapsed_seconds();
    const double sps =
        seconds > 0.0
            ? static_cast<double>(kTouched * kBlock * kPasses) / seconds
            : 0.0;
    table.add_row({"nsl-kdd", "100k", "density/hot=64",
                   util::fmt(sps > 0.0 ? 1e9 / sps : 0.0, 0),
                   util::fmt(sps / 1e3, 1), "-"});
    records.push_back(make_record(
        "nsl-kdd/density/registered=100k/hot=64/touched=512", sps));
    std::printf(
        "density: %zu registered, %zu resident / %zu cold after %zu "
        "touched-stream passes\n",
        manager.num_streams(), manager.hot_streams(),
        manager.cold_streams(), kPasses);
  }

  // Cooling-fan spectra (d=511, C=1): the wide-input regime where the
  // fused GEMM drain dominates the per-sample matvec path on compute.
  {
    data::CoolingFanLikeConfig stream_config;
    stream_config.train_size = 3000;
    util::Rng train_rng(2025);
    util::Rng stream_rng(2026);
    const data::Dataset train =
        data::CoolingFanLike().training(train_rng);
    const data::Dataset stationary =
        data::CoolingFanLike(stream_config).training(stream_rng);
    core::PipelineConfig config = bench::cooling_fan_config().pipeline;
    config.input_dim = train.dim();

    run_drain("fan", config, train, stationary.x, 8, table, records);
  }

  std::printf("\n%s\n", table.str().c_str());
  if (!json_path.empty() &&
      !bench::write_kernel_json(json_path, "bench_manager_throughput",
                                records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
