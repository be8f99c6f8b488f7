// The gateway loop and its correctness reference.
//
// A pass replays a workload's whole round schedule through a freshly set-up
// PipelineManager: per round, one submit_batch per tick, one drain(), then
// one take_steps(id, out) per tick. Every collected step is compared with
// the lone-Pipeline reference of the same stream. The traced variant wraps
// each public call into core in a span; the untraced one times rounds only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "workload.hpp"

namespace perfbench {

/// The parts of a PipelineStep the equivalence contract compares.
struct ExpectedStep {
  std::uint64_t score_bits = 0;
  std::uint32_t label = 0;
  std::uint8_t flags = 0;  ///< bit 0: drift_detected, bit 1: reconstructing.
};

ExpectedStep summarize(const edgedrift::core::PipelineStep& step);

/// Lone-Pipeline replay of every stream: one process() per row.
struct Reference {
  std::vector<ExpectedStep> steps;  ///< One per row of Workload::rows.
  std::uint64_t decision_digest = 0;
  // One span per process() call, split by the step it returned.
  std::uint64_t steady_ns = 0;
  std::uint64_t steady_rows = 0;
  std::uint64_t recover_ns = 0;
  std::uint64_t recover_rows = 0;
  std::size_t drifts = 0;
  std::size_t recoveries = 0;
};

Reference replay_reference(const Workload& w, const std::string& blob);

/// A row whose managed step differs from the reference.
struct Mismatch {
  std::size_t stream = 0;
  std::size_t stream_row = 0;  ///< Row index within that stream's traffic.
};

/// Span kinds of the traced loop (public calls into core).
enum SpanKind : std::size_t {
  kSpanResident,  ///< resident(id), which classifies the submit after it.
  kSpanSubmit,    ///< submit_batch on a resident stream.
  kSpanRestore,   ///< submit_batch on a cold stream (restores it).
  kSpanDrain,     ///< drain().
  kSpanCollect,   ///< take_steps(id, out).
  kSpanKinds,
};

/// Core counters read from stats() and telemetry() after a pass.
struct CoreCounters {
  std::uint64_t evictions = 0;
  std::uint64_t coalesced_rows = 0;
  std::uint64_t coalesced_gemms = 0;
  std::uint64_t worker_parks = 0;
  std::uint64_t processed = 0;
  std::uint64_t drain_bursts = 0;
  bool all_pinned = false;  ///< Every shard worker of the last pass pinned.

  CoreCounters& operator+=(const CoreCounters& o) {
    evictions += o.evictions;
    coalesced_rows += o.coalesced_rows;
    coalesced_gemms += o.coalesced_gemms;
    worker_parks += o.worker_parks;
    processed += o.processed;
    drain_bursts += o.drain_bursts;
    all_pinned = o.all_pinned;
    return *this;
  }
};

struct SpanTotals {
  std::array<std::uint64_t, kSpanKinds> ns{};
  std::array<std::uint64_t, kSpanKinds> calls{};
  std::array<std::uint64_t, kSpanKinds> rows{};
  std::uint64_t round_ns = 0;
  /// Cold-stream submits and rows from round 2 on (round 1 restores every
  /// seeded stream once on every workload that seeds).
  std::uint64_t restores_after_first = 0;
  std::uint64_t rows_after_first = 0;

  SpanTotals& operator+=(const SpanTotals& o) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      ns[k] += o.ns[k];
      calls[k] += o.calls[k];
      rows[k] += o.rows[k];
    }
    round_ns += o.round_ns;
    restores_after_first += o.restores_after_first;
    rows_after_first += o.rows_after_first;
    return *this;
  }
};

struct PassResult {
  double setup_s = 0.0;
  /// Times of the timed rounds: every round after the warm-up round 0.
  std::vector<double> round_us;
  std::uint64_t round_ns = 0;
  std::uint64_t timed_rows = 0;
  std::uint64_t rows = 0;  ///< Every row submitted, warm-up included.
  std::uint64_t refused = 0;
  std::uint64_t mismatched = 0;
  std::vector<Mismatch> first_mismatches;  ///< Up to 8, in schedule order.
  std::uint64_t decision_digest = 0;
  SpanTotals spans;        ///< Traced passes only.
  CoreCounters counters;   ///< Traced and kShard passes only.
};

/// Sets up a manager with `options`, replays every round and tears it
/// down. Tracing records spans around each core call.
PassResult run_pass(const Workload& w,
                    const edgedrift::core::ManagerOptions& options,
                    const Reference& ref, bool traced);

/// Drain cost per row for a stream already holding `backlog` uncollected
/// steps: the median of 64 four-row bursts submitted and drained without
/// take_steps.
double backlog_ns_per_row(const Workload& w, std::size_t backlog);

}  // namespace perfbench
