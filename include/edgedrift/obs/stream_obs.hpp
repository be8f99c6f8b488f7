// obs::StreamObs — the per-stream observability block core::Pipeline owns.
//
// One StreamObs bundles the recording primitives of the layer: the
// stream's counter book (obs::Counters, always on), three pipeline-stage
// LatencyHistograms plus the serving layer's submit->drain histogram, and
// the DriftJournal. Everything is preallocated at construction and
// recording is allocation-free and lock-free, so the block can be written
// from the serving hot path and read by stats() snapshots at any time from
// any thread.
//
// Instrumentation is observation-only by contract: nothing the pipeline
// computes may depend on a StreamObs, so obs-on and obs-off runs are
// bit-identical (tests/test_obs.cpp pins this on the C=23 configuration).
// ObsOptions::enabled (at runtime) and EDGEDRIFT_NO_OBS (at compile time)
// switch off the latency timing and the journal; the counters count in
// every build (see obs/counters.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "edgedrift/obs/counters.hpp"
#include "edgedrift/obs/drift_journal.hpp"
#include "edgedrift/obs/latency_histogram.hpp"
#include "edgedrift/obs/snapshot.hpp"

namespace edgedrift::obs {

/// Observability knobs, fixed at pipeline construction.
struct ObsOptions {
  /// Runtime switch for latency timing and the journal. Off: the pipeline
  /// reads no clock for them and records no histogram or drift event (they
  /// stay readable, frozen at zero); the counters still count.
  bool enabled = true;

  /// Drift events the journal retains before overwriting the oldest.
  std::size_t journal_capacity = 64;

  /// Per-sample latency instruments (score, detect, submit->drain) are
  /// timed on every Nth sample — at full native batch throughput a clock
  /// read plus histogram store per sample alone costs ~3%, so sampling is
  /// what keeps the layer under the perf-smoke budget. The pipeline keys
  /// score/detect off its own sample tick; the serving layer keys
  /// submit->drain off the absolute ring position, so producer (stamp) and
  /// consumer (record) agree on which slots carry timestamps. Rounded up
  /// to a power of two; 1 times every sample. Counters and the journal are
  /// never sampled — those books balance exactly.
  std::size_t latency_sample_every = 16;
};

/// The recording block. Construction allocates; recording never does.
class StreamObs {
 public:
  StreamObs(const ObsOptions& options, std::size_t num_labels)
      : journal(options.journal_capacity, num_labels),
        enabled_(kObsCompiled && options.enabled),
        sample_mask_(mask_of(options.latency_sample_every)) {}

  /// True when latency timing and the journal run (compile-time AND
  /// runtime gate). The counters do not consult it.
  bool enabled() const { return enabled_; }

  /// (tick & mask) == 0 selects the samples that are clock-timed; the
  /// caller owns the tick counter (pipeline sample tick for score/detect,
  /// absolute ring position for submit->drain).
  std::uint64_t latency_sample_mask() const { return sample_mask_; }

  StreamSnapshot snapshot(std::size_t stream_id) const {
    StreamSnapshot s;
    s.stream_id = stream_id;
    s.counters = counters.snapshot();
    s.submit_to_drain = submit_to_drain.snapshot();
    s.score = score.snapshot();
    s.detect = detect.snapshot();
    s.reconstruct = reconstruct.snapshot();
    s.journal = journal.snapshot();
    return s;
  }

  Counters counters;
  LatencyHistogram submit_to_drain;
  LatencyHistogram score;
  LatencyHistogram detect;
  LatencyHistogram reconstruct;
  DriftJournal journal;

 private:
  static std::uint64_t mask_of(std::size_t every) {
    std::uint64_t n = 1;
    while (n < every) n <<= 1;
    return n - 1;
  }

  bool enabled_;
  std::uint64_t sample_mask_;
};

}  // namespace edgedrift::obs
