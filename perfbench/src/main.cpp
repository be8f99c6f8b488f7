// perfbench — the end-to-end benchmark of edgedrift's serving stack.
//
//   perfbench --workload <fleet-drift|label-rich|cold-churn> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--plant-mismatch <row>]
//
// One gateway thread replays the workload's seeded round schedule through a
// 2-shard PipelineManager in kManual dispatch, the loop of a single-core
// edge gateway: per round one submit_batch per tick, one drain(), one
// take_steps per tick. Passes (each a fresh set-up plus the whole
// schedule, each on the next core in turn) repeat until --seconds have
// elapsed, and every timing metric is read at its fast decile over the
// passes (see fast_decile). --trace 0 reports the end-to-end metrics of that
// untraced loop; --trace 1 alternates traced and untraced passes and
// reports the per-layer ledger (core spans and counters, the lone-Pipeline
// replay, a 2-worker kShard pass and the layer probes). Every collected
// step is checked against the lone-Pipeline reference. The last line of
// stdout is the JSON result.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/thread_pool.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  long plant_row = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--plant-mismatch "
               "<row>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + key);
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        a.workload = value();
      } else if (key == "--seed") {
        a.seed = std::stoull(value());
      } else if (key == "--seconds") {
        a.seconds = std::stod(value());
      } else if (key == "--trace") {
        a.trace = std::stoi(value());
      } else if (key == "--tiny") {
        a.tiny = true;
      } else if (key == "--plant-mismatch") {
        a.plant_row = std::stol(value());
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::size_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Moves the gateway thread to the next allowed core before each pass.
/// A virtual core of a shared host runs at two thirds of its speed for as
/// long as a co-tenant keeps the physical core busy, often a whole run; the
/// cores are contended at different times, so visiting every core in turn
/// gives each run passes on an uncontended one. Without affinity control
/// the thread stays where the scheduler puts it.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cores_.push_back(cpu);
    }
  }

  void next() {
    if (cores_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[pins_ % cores_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) ++pins_;
  }
  /// Gives the thread every allowed core again.
  void release() {
    if (pins_ > 0) sched_setaffinity(0, sizeof(all_), &all_);
  }
  /// Distinct cores the passes ran on (1 without affinity control).
  std::size_t visited() const {
    return std::max<std::size_t>(1, std::min(pins_, cores_.size()));
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cores_;
  std::size_t pins_ = 0;
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// What the passes of one kind (untraced, traced, workers) add up to.
struct Totals {
  // Per pass, over its timed rounds.
  std::vector<double> throughput;  ///< rows / total round time, rows/s.
  std::vector<double> setup_s;   ///< One per pass, plus set-up-only runs.
  /// Every timed round of every pass: pass after pass, each in schedule
  /// order.
  std::vector<double> round_us;
  std::uint64_t timed_rows = 0;  ///< Rows of one pass's timed rounds.
  std::uint64_t rows = 0;
  std::uint64_t failed = 0;  ///< Refused plus mismatched rows.
  std::vector<Mismatch> mismatches;
  std::vector<std::uint64_t> digests;
  SpanTotals spans;
  CoreCounters counters;

  void add(PassResult p) {
    throughput.push_back(static_cast<double>(p.timed_rows) * 1e9 /
                         static_cast<double>(p.round_ns));
    round_us.insert(round_us.end(), p.round_us.begin(), p.round_us.end());
    timed_rows = p.timed_rows;
    setup_s.push_back(p.setup_s);
    rows += p.rows;
    failed += p.refused + p.mismatched;
    for (const auto& m : p.first_mismatches) {
      if (mismatches.size() < 8) mismatches.push_back(m);
    }
    digests.push_back(p.decision_digest);
    spans += p.spans;
    counters += p.counters;
  }
  std::size_t passes() const { return throughput.size(); }
};

/// The host shares its cores with other tenants, whose load slows a core
/// by up to a third in stretches from milliseconds to minutes; the
/// program's own cost is what the least slowed samples show. Timings are
/// therefore read at their fast decile, the 10th percentile of repeated
/// measurements of identical work, so a slower program moves it as much as
/// it moves the median.
double fast_decile(std::vector<double> v) { return quantile(v, 0.1); }

/// Every round of the schedule at its fast decile over the passes of a run.
std::vector<double> fast_rounds(const Totals& t) {
  const std::size_t passes = t.passes();
  const std::size_t per_pass = t.round_us.size() / passes;
  std::vector<double> fast(per_pass);
  std::vector<double> times(passes);
  for (std::size_t r = 0; r < per_pass; ++r) {
    for (std::size_t k = 0; k < passes; ++k) {
      times[k] = t.round_us[k * per_pass + r];
    }
    fast[r] = fast_decile(times);
  }
  return fast;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// The per-layer ledger of a --trace 1 run.
std::vector<Metric> layer_metrics(const Reference& ref, const Totals& plain,
                                  const Totals& traced, const Totals& workers,
                                  double backlog, const ProbeResult& probe) {
  const SpanTotals& s = traced.spans;
  const CoreCounters& c = traced.counters;
  const auto rows = static_cast<double>(traced.rows);
  std::uint64_t child_ns = 0;
  for (std::size_t k = 0; k < kSpanKinds; ++k) child_ns += s.ns[k];
  return {
      {"core.submit.ns_per_row", ratio(s.ns[kSpanSubmit], s.rows[kSpanSubmit]),
       "ns"},
      {"core.restore.us_per_call",
       ratio(s.ns[kSpanRestore], s.calls[kSpanRestore]) / 1e3, "us"},
      {"core.restore.per_1k_rows",
       1e3 * ratio(s.restores_after_first, s.rows_after_first), "count"},
      {"core.evict.per_1k_rows",
       1e3 * ratio(static_cast<double>(c.evictions), rows), "count"},
      {"core.drain.ns_per_row", ratio(s.ns[kSpanDrain], s.rows[kSpanDrain]),
       "ns"},
      {"core.drain.rows_per_burst", ratio(c.processed, c.drain_bursts),
       "rows"},
      {"core.coalesce.row_share",
       ratio(static_cast<double>(c.coalesced_rows), rows), "fraction"},
      {"core.coalesce.rows_per_gemm",
       ratio(c.coalesced_rows, c.coalesced_gemms), "rows"},
      {"core.collect.ns_per_row",
       ratio(s.ns[kSpanCollect], s.rows[kSpanCollect]), "ns"},
      {"core.steps.backlog_ns_per_row", backlog, "ns"},
      {"core.workers.throughput", median(workers.throughput), "rows/s"},
      {"core.workers.parks_per_1k_rows",
       1e3 * ratio(workers.counters.worker_parks, workers.rows), "count"},
      {"core.workers.rows_per_burst",
       ratio(workers.counters.processed, workers.counters.drain_bursts),
       "rows"},
      {"pipeline.steady.ns_per_row", ratio(ref.steady_ns, ref.steady_rows),
       "ns"},
      {"pipeline.recover.ns_per_row", ratio(ref.recover_ns, ref.recover_rows),
       "ns"},
      {"pipeline.recover.row_share",
       ratio(ref.recover_rows, static_cast<std::uint64_t>(ref.steps.size())),
       "fraction"},
      {"pipeline.recoveries", static_cast<double>(ref.recoveries), "count"},
      {"pipeline.drifts", static_cast<double>(ref.drifts), "count"},
      {"oselm.project.ns_per_row", probe.project_ns_per_row, "ns"},
      {"model.score.ns_per_row", probe.score_ns_per_row, "ns"},
      {"drift.observe.ns_per_row", probe.observe_ns_per_row, "ns"},
      {"io.save.us", probe.save_us, "us"},
      {"io.load.us", probe.load_us, "us"},
      {"io.blob_bytes", static_cast<double>(probe.blob_bytes), "bytes"},
      {"trace.coverage", ratio(child_ns, s.round_ns), "fraction"},
      {"trace.overhead",
       ratio(median(plain.throughput), median(traced.throughput)) - 1.0,
       "fraction"},
  };
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    json_string(out, metrics[i].name);
    out += ": {\"value\": " + json_number(metrics[i].value) + ", \"unit\": ";
    json_string(out, metrics[i].unit);
    out += "}";
  }
  return out + "}}";
}

int run(const Args& args) {
  // The gateway is single-core: every parallel_for the library issues (the
  // per-instance fits, large GEMMs) runs inline on the gateway thread.
  edgedrift::util::ThreadPool::mark_inline_worker();
  const double host_ms = host_probe_ms();
  const auto w = make_workload(args.workload, args.seed, args.tiny);
  if (!w) usage("unknown workload " + args.workload);
  const std::string blob = template_blob(*w);
  Reference ref = replay_reference(*w, blob);
  if (args.plant_row >= 0) {
    const auto row = static_cast<std::size_t>(args.plant_row);
    if (row >= ref.steps.size()) usage("--plant-mismatch row out of range");
    ref.steps[row].label ^= 1U;
  }

  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  Totals plain;
  Totals traced;
  Totals workers;
  double peak_rss_mb = 0.0;
  bool peak_rss_reset = false;
  std::vector<Metric> metrics;
  CoreRotation cores;

  if (args.trace == 0) {
    const Rss base = read_rss();
    // Without a reset the kernel reports the lifetime peak, which input
    // generation may have set.
    peak_rss_reset = reset_peak_rss();
    // Set-up is milliseconds long: its fast decile needs more samples than
    // the passes give.
    for (int i = 0; i < 8; ++i) {
      cores.next();
      const std::uint64_t t0 = now_ns();
      auto m = set_up(*w, w->options);
      plain.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    // The peak is read after the first pass: later passes only add to the
    // benchmark's own store of round times, which grows with the number of
    // passes a fast host fits into the run.
    std::uint64_t peak = 0;
    const std::uint64_t start = now_ns();
    do {
      cores.next();
      plain.add(run_pass(*w, w->options, ref, false));
      if (plain.passes() == 1) peak = read_rss().peak;
    } while (now_ns() - start < budget_ns);
    cores.release();
    peak_rss_mb = static_cast<double>(peak > base.current
                                          ? peak - base.current
                                          : 0) /
                  (1024.0 * 1024.0);
  } else {
    const std::uint64_t start = now_ns();
    do {
      // Each traced pass shares its core with the untraced pass before it,
      // so trace.overhead compares like with like.
      cores.next();
      plain.add(run_pass(*w, w->options, ref, false));
      traced.add(run_pass(*w, w->options, ref, true));
    } while (now_ns() - start < budget_ns);
    cores.release();
    edgedrift::core::ManagerOptions shard_options = w->options;
    shard_options.dispatch = edgedrift::core::DispatchMode::kShard;
    shard_options.pin_cores = true;
    workers.add(run_pass(*w, shard_options, ref, false));
  }

  std::printf("perfbench %s seed=%llu trace=%d%s\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              args.tiny ? " (tiny)" : "");
  std::printf("  inputs: %zu streams, %zu rounds (1 warm-up) x %zu ticks of "
              "%zu rows = %zu rows per pass\n",
              w->num_streams(), w->num_rounds(), w->max_round_ticks,
              w->tick_rows, w->rows.rows());
  std::printf("  reference: %zu drifts, %zu recoveries, %llu recovery rows\n",
              ref.drifts, ref.recoveries,
              static_cast<unsigned long long>(ref.recover_rows));

  std::vector<double> fast = fast_rounds(plain);
  double fast_us = 0.0;
  for (const double t : fast) fast_us += t;
  const double p50_fast = quantile(fast, 0.5);
  const double p90_fast = quantile(fast, 0.9);
  const auto beyond_p90 = static_cast<std::size_t>(
      std::count_if(fast.begin(), fast.end(),
                    [p90_fast](double v) { return v > p90_fast; }));
  std::vector<double> rounds = plain.round_us;
  const double p99_all = quantile(rounds, 0.99);
  if (args.trace == 0) {
    metrics = {
        {"throughput", static_cast<double>(plain.timed_rows) * 1e6 / fast_us,
         "rows/s"},
        {"round_p50_us", p50_fast, "us"},
        {"round_p90_us", p90_fast, "us"},
        {"setup_s", fast_decile(plain.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::printf("  passes: %zu of %zu timed rounds, each round read at its "
                "fast decile over the passes (%zu beyond p90); %zu "
                "set-ups:\n",
                plain.passes(), fast.size(), beyond_p90,
                plain.setup_s.size());
  } else {
    const double backlog = backlog_ns_per_row(*w, 4096);
    const double no_backlog = backlog_ns_per_row(*w, 0);
    const ProbeResult probe = run_probes(*w, blob);
    metrics = layer_metrics(ref, plain, traced, workers, backlog, probe);
    std::printf("  passes: %zu untraced + %zu traced + %zu kShard "
                "(workers pinned: %s); backlog probe %.0f ns/row at 4096 "
                "uncollected steps vs %.0f at 0\n",
                plain.passes(), traced.passes(), workers.passes(),
                workers.counters.all_pinned ? "yes" : "no", backlog,
                no_backlog);
  }
  print_metrics(metrics);

  const std::uint64_t attempted = plain.rows + traced.rows + workers.rows;
  const std::uint64_t failed = plain.failed + traced.failed + workers.failed;
  const double failed_share = ratio(failed, attempted);
  std::printf("  %-32s %16.6g %s (%llu of %llu rows)\n", "failed_share",
              failed_share, "fraction",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  %-32s %16.6g %s (every timed round; diagnostic, ungated)\n",
              "round_p99_us", p99_all, "us");
  bool digests_agree = true;
  for (const Totals* t : {&plain, &traced, &workers}) {
    for (const auto d : t->digests) {
      digests_agree = digests_agree && d == ref.decision_digest;
    }
    for (const auto& m : t->mismatches) {
      std::printf("  MISMATCH stream %zu row %zu\n", m.stream, m.stream_row);
    }
  }
  const bool correct = failed == 0 && digests_agree;

  std::string info = "{\"perfbench\": {\"workload\": ";
  json_string(info, w->name);
  info += ", \"seed\": " + std::to_string(args.seed);
  info += ", \"trace\": " + std::to_string(args.trace);
  info += ", \"input_digest\": \"" + hex(input_digest(*w)) + "\"";
  info += ", \"decision_digest\": \"" + hex(ref.decision_digest) + "\"";
  info += ", \"digests_agree\": ";
  info += digests_agree ? "true" : "false";
  info += ", \"passes\": " + std::to_string(plain.passes() + traced.passes());
  info += ", \"rounds_per_pass\": " + std::to_string(fast.size());
  info += ", \"rounds_beyond_p90\": " + std::to_string(beyond_p90);
  info += ", \"round_p99_us\": " + json_number(p99_all);
  info += ", \"failed_share\": " + json_number(failed_share);
  info += ", \"drifts\": " + std::to_string(ref.drifts);
  info += ", \"recoveries\": " + std::to_string(ref.recoveries);
  auto array = [&info](const char* key, const std::vector<double>& v) {
    info += ", \"";
    info += key;
    info += "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) info += ", ";
      info += json_number(v[i]);
    }
    info += "]";
  };
  array("pass_throughput", plain.throughput);
  array("setup_samples_s", plain.setup_s);
  info += ", \"peak_rss_reset\": ";
  info += peak_rss_reset ? "true" : "false";
  info += ", \"workers_pinned\": ";
  info += workers.counters.all_pinned ? "true" : "false";
  info += ", \"host_probe_ms\": " + json_number(host_ms);
  info += ", \"nproc\": " + std::to_string(allowed_cpus());
  info += ", \"cores_visited\": " + std::to_string(cores.visited());
  info += ", \"cpu\": ";
  json_string(info, cpu_model());
  info += ", \"simd\": ";
  json_string(info, edgedrift::linalg::simd::kLevelName);
  info += ", \"build_flags\": ";
  json_string(info, PERFBENCH_BUILD_FLAGS);
  const char* source = std::getenv("PERFBENCH_SOURCE");
  info += ", \"source\": ";
  json_string(info, source != nullptr ? source : "unknown");
  info += "}}";
  std::printf("%s\n", info.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
