#include "edgedrift/obs/snapshot.hpp"

#include <cinttypes>
#include <cstdio>

#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/util/table.hpp"

namespace edgedrift::obs {
namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// "12.3 us"-style rendering of a nanosecond figure.
std::string fmt_ns(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  }
  return buf;
}

const char* action_name(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kNone:
      return "detect-only";
    case RecoveryAction::kReconstruct:
      return "reconstruct";
  }
  return "?";
}

void append_histogram_row(util::Table& table, std::size_t stream,
                          const char* stage, const HistogramSnapshot& h) {
  const std::uint64_t n = h.count();
  if (n == 0) return;
  table.add_row({std::to_string(stream), stage, fmt_u64(n),
                 fmt_ns(h.mean_ns()),
                 fmt_ns(static_cast<double>(h.quantile_upper_ns(0.5))),
                 fmt_ns(static_cast<double>(h.quantile_upper_ns(0.99))),
                 fmt_ns(static_cast<double>(h.max_ns))});
}

void append_histogram_json(std::string& out, const char* name,
                           const HistogramSnapshot& h, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "        \"%s\": {\"count\": %" PRIu64
                ", \"mean_ns\": %.1f, \"p50_ns\": %" PRIu64
                ", \"p99_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 "}%s\n",
                name, h.count(), h.mean_ns(), h.quantile_upper_ns(0.5),
                h.quantile_upper_ns(0.99), h.max_ns, last ? "" : ",");
  out += buf;
}

}  // namespace

CounterSnapshot Snapshot::totals() const {
  CounterSnapshot total;
  for (const StreamSnapshot& s : streams) total += s.counters;
  return total;
}

std::string Snapshot::to_text() const {
  std::string out;

  util::Table counters({"Stream", "samples", "drifts", "recoveries",
                        "recovery-samples", "windows", "batch-chunks",
                        "batch-rows", "rejected", "ring-hw"});
  const auto add_counter_row = [&](std::string label,
                                   const CounterSnapshot& c) {
    counters.add_row({std::move(label), fmt_u64(c.samples),
                      fmt_u64(c.drifts), fmt_u64(c.recoveries),
                      fmt_u64(c.recovery_samples), fmt_u64(c.windows_opened),
                      fmt_u64(c.batch_chunks), fmt_u64(c.batch_rows),
                      fmt_u64(c.rejected), fmt_u64(c.ring_high_water)});
  };
  for (const StreamSnapshot& s : streams) {
    add_counter_row(std::to_string(s.stream_id), s.counters);
  }
  if (streams.size() > 1) add_counter_row("total", totals());
  out += "counters:\n" + counters.str() + "\n";

  util::Table latency({"Stream", "Stage", "count", "mean", "p50<=",
                       "p99<=", "max"});
  for (const StreamSnapshot& s : streams) {
    append_histogram_row(latency, s.stream_id, "submit->drain",
                         s.submit_to_drain);
    append_histogram_row(latency, s.stream_id, "score", s.score);
    append_histogram_row(latency, s.stream_id, "detect", s.detect);
    append_histogram_row(latency, s.stream_id, "reconstruct",
                         s.reconstruct);
  }
  if (latency.rows() > 0) {
    out += "latency (log2 buckets; per-sample stages time every Nth "
           "sample):\n" +
           latency.str() + "\n";
  }

  if (!shards.empty()) {
    util::Table shard_table({"Shard", "hot", "cold", "hot-bytes",
                             "cold-bytes", "evictions", "restores",
                             "evict-p99<=", "restore-p99<=", "parks",
                             "pinned"});
    for (const ShardSnapshot& sh : shards) {
      shard_table.add_row(
          {std::to_string(sh.shard_id), fmt_u64(sh.hot_streams),
           fmt_u64(sh.cold_streams), fmt_u64(sh.hot_bytes),
           fmt_u64(sh.cold_bytes), fmt_u64(sh.evictions),
           fmt_u64(sh.restores),
           fmt_ns(static_cast<double>(sh.evict_ns.quantile_upper_ns(0.99))),
           fmt_ns(static_cast<double>(
               sh.restore_ns.quantile_upper_ns(0.99))),
           fmt_u64(sh.worker_parks), sh.pinned ? "yes" : "no"});
    }
    out += "shards:\n" + shard_table.str() + "\n";

    util::Table coalesce_table({"Shard", "gemms", "rows", "streams",
                                "rows/gemm", "fallbacks"});
    bool any_coalescing = false;
    for (const ShardSnapshot& sh : shards) {
      if (sh.coalesced_gemms > 0 || sh.coalesce_fallbacks > 0) {
        any_coalescing = true;
      }
      coalesce_table.add_row(
          {std::to_string(sh.shard_id), fmt_u64(sh.coalesced_gemms),
           fmt_u64(sh.coalesced_rows), fmt_u64(sh.coalesced_streams),
           util::fmt(sh.rows_per_gemm(), 1),
           fmt_u64(sh.coalesce_fallbacks)});
    }
    if (any_coalescing) {
      out += "coalesced drains (shared-projection mega-batches):\n" +
             coalesce_table.str() + "\n";
    }
  }

  util::Table journal({"Stream", "sample", "statistic", "theta", "window",
                       "action", "recovery"});
  for (const StreamSnapshot& s : streams) {
    for (const DriftEvent& e : s.journal) {
      journal.add_row(
          {std::to_string(s.stream_id), fmt_u64(e.sample_index),
           util::fmt(e.statistic, 4), util::fmt(e.theta_drift, 4),
           std::to_string(e.window_span), action_name(e.action),
           e.completed ? fmt_u64(e.recovery_samples) + " samples"
                       : std::string("running")});
    }
  }
  if (journal.rows() > 0) {
    out += "drift journal (most recent events):\n" + journal.str();
  } else {
    out += "drift journal: empty\n";
  }
  return out;
}

std::string Snapshot::to_json(std::string_view source) const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"edgedrift-obs-v3\",\n";
  out += "  \"binary\": \"" + std::string(source) + "\",\n";
  out += "  \"simd\": \"" + std::string(linalg::simd::kLevelName) + "\",\n";
  out += "  \"streams\": [\n";
  char buf[768];
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamSnapshot& s = streams[i];
    const CounterSnapshot& c = s.counters;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"id\": %zu,\n"
        "      \"counters\": {\"samples\": %" PRIu64 ", \"drifts\": %" PRIu64
        ", \"recoveries\": %" PRIu64 ", \"recovery_samples\": %" PRIu64
        ",\n        \"windows_opened\": %" PRIu64 ", \"batch_chunks\": %" PRIu64
        ", \"batch_rows\": %" PRIu64 ",\n        \"rejected\": %" PRIu64
        ", \"ring_high_water\": %" PRIu64 "},\n",
        s.stream_id, c.samples, c.drifts, c.recoveries, c.recovery_samples,
        c.windows_opened, c.batch_chunks, c.batch_rows, c.rejected,
        c.ring_high_water);
    out += buf;
    out += "      \"latency\": {\n";
    append_histogram_json(out, "submit_to_drain", s.submit_to_drain, false);
    append_histogram_json(out, "score", s.score, false);
    append_histogram_json(out, "detect", s.detect, false);
    append_histogram_json(out, "reconstruct", s.reconstruct, true);
    out += "      },\n";
    out += "      \"drift_events\": [";
    for (std::size_t e = 0; e < s.journal.size(); ++e) {
      const DriftEvent& ev = s.journal[e];
      std::snprintf(buf, sizeof(buf),
                    "\n        {\"sample\": %" PRIu64
                    ", \"statistic\": %.6g, \"theta_drift\": %.6g, "
                    "\"window\": %u, \"action\": \"%s\", "
                    "\"completed\": %s, \"recovery_samples\": %" PRIu64
                    "}%s",
                    ev.sample_index, ev.statistic, ev.theta_drift,
                    ev.window_span, action_name(ev.action),
                    ev.completed ? "true" : "false", ev.recovery_samples,
                    e + 1 < s.journal.size() ? "," : "");
      out += buf;
    }
    out += s.journal.empty() ? "]\n" : "\n      ]\n";
    out += i + 1 < streams.size() ? "    },\n" : "    }\n";
  }
  out += shards.empty() ? "  ]\n" : "  ],\n";
  if (!shards.empty()) {
    out += "  \"shards\": [\n";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const ShardSnapshot& sh = shards[i];
      std::snprintf(buf, sizeof(buf),
                    "    {\"id\": %zu, \"pinned\": %s,\n"
                    "      \"hot_streams\": %" PRIu64
                    ", \"cold_streams\": %" PRIu64
                    ", \"hot_bytes\": %" PRIu64 ", \"cold_bytes\": %" PRIu64
                    ",\n"
                    "      \"evictions\": %" PRIu64 ", \"restores\": %" PRIu64
                    ", \"restore_failures\": %" PRIu64
                    ", \"evict_skipped\": %" PRIu64
                    ", \"worker_parks\": %" PRIu64 ",\n"
                    "      \"coalesced_gemms\": %" PRIu64
                    ", \"coalesced_rows\": %" PRIu64
                    ", \"coalesced_streams\": %" PRIu64
                    ", \"coalesce_fallbacks\": %" PRIu64 ",\n"
                    "      \"latency\": {\n",
                    sh.shard_id, sh.pinned ? "true" : "false",
                    sh.hot_streams, sh.cold_streams, sh.hot_bytes,
                    sh.cold_bytes, sh.evictions, sh.restores,
                    sh.restore_failures, sh.evict_skipped, sh.worker_parks,
                    sh.coalesced_gemms, sh.coalesced_rows,
                    sh.coalesced_streams, sh.coalesce_fallbacks);
      out += buf;
      append_histogram_json(out, "evict", sh.evict_ns, false);
      append_histogram_json(out, "restore", sh.restore_ns, true);
      out += "      }\n";
      out += i + 1 < shards.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n";
  }
  out += "}\n";
  return out;
}

bool Snapshot::write_json(const std::string& path,
                          std::string_view source) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json(source);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace edgedrift::obs
