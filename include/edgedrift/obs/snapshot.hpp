// obs::Snapshot — plain-value aggregation of the observability layer.
//
// A snapshot is what crosses the thread boundary: every field is a copied
// value, safe to hold, print or serialize long after the pipelines moved
// on. PipelineManager::stats() (and Pipeline::obs().snapshot(id) for a
// single stream) produce one; to_text() renders the operator-facing summary
// the CLI --stats flag prints, and write_json() emits the machine-readable
// "edgedrift-obs-v3" record — the observability sibling of the
// edgedrift-bench-v1 schema (same envelope: schema / binary / simd level).
// Each stream's counter book is carried under the field names of
// obs::CounterSnapshot; v3 dropped v2's three chunked-training counters.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "edgedrift/obs/counters.hpp"
#include "edgedrift/obs/drift_journal.hpp"
#include "edgedrift/obs/latency_histogram.hpp"
#include "edgedrift/obs/shard_obs.hpp"

namespace edgedrift::obs {

/// One stream's complete observability state at a point in time.
struct StreamSnapshot {
  std::size_t stream_id = 0;
  CounterSnapshot counters;
  HistogramSnapshot submit_to_drain;  ///< Ring enqueue -> drained, per row.
  HistogramSnapshot score;            ///< Model scoring, per sample.
  HistogramSnapshot detect;           ///< Detector observe(), per sample.
  HistogramSnapshot reconstruct;      ///< Recovery step, per sample.
  std::vector<DriftEvent> journal;    ///< Retained events, oldest first.

  /// Merges a later snapshot of the SAME stream (how PipelineManager folds
  /// a live obs block into the history carried across evict/restore
  /// cycles): counters and histograms add; the journals concatenate in
  /// order and, as one journal would, keep the newest `journal_capacity`
  /// events. Keeps this snapshot's stream_id.
  void merge(const StreamSnapshot& o, std::size_t journal_capacity) {
    counters += o.counters;
    submit_to_drain += o.submit_to_drain;
    score += o.score;
    detect += o.detect;
    reconstruct += o.reconstruct;
    journal.insert(journal.end(), o.journal.begin(), o.journal.end());
    if (journal.size() > journal_capacity) {
      journal.erase(journal.begin(), journal.end() - journal_capacity);
    }
  }
};

/// Multi-stream aggregation with text and JSON exporters.
struct Snapshot {
  std::vector<StreamSnapshot> streams;
  /// One entry per serving shard (empty outside the sharded manager).
  std::vector<ShardSnapshot> shards;

  /// Counters summed across streams (high-water is the max).
  CounterSnapshot totals() const;

  /// Operator-facing text rendering (counters table, latency quantiles,
  /// recent drift events).
  std::string to_text() const;

  /// "edgedrift-obs-v3" JSON. `source` names the producing binary.
  std::string to_json(std::string_view source) const;

  /// Writes to_json() to `path`; false when the file cannot be opened.
  bool write_json(const std::string& path, std::string_view source) const;
};

}  // namespace edgedrift::obs
