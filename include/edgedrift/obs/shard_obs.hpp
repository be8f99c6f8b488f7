// obs::ShardObs — per-shard serving counters for the sharded manager.
//
// Each serving shard (core/pipeline_manager.hpp) owns one ShardObs block,
// so in the steady state no two shards ever write the same cache line.
// Unlike obs::Counters, the eviction counters here can be bumped from two
// threads at once (a producer restoring a cold stream races the shard
// worker evicting another), so mutators are relaxed fetch_add rather than
// the single-writer load+store trick. The latency histograms reuse
// obs::LatencyHistogram, whose record() is already multi-writer-safe.
//
// Gauges (hot/cold stream counts, resident bytes, pinning state) live in
// the shard itself and are copied into the ShardSnapshot by stats(); this
// block only holds the monotonic event counters and histograms.
//
// The counters count in every build. EDGEDRIFT_NO_OBS and
// ObsOptions::enabled switch off only the evict/restore latency histograms
// (see obs/counters.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "edgedrift/obs/latency_histogram.hpp"

namespace edgedrift::obs {

/// One shard's complete observability state at a point in time.
struct ShardSnapshot {
  std::size_t shard_id = 0;
  bool pinned = false;            ///< Worker thread is core-pinned.
  std::uint64_t hot_streams = 0;  ///< Streams resident in this shard.
  std::uint64_t cold_streams = 0; ///< Streams evicted to the cold store.
  std::uint64_t hot_bytes = 0;    ///< Resident footprint (models + ring pages).
  std::uint64_t cold_bytes = 0;   ///< Cold-store payload bytes.
  std::uint64_t evictions = 0;    ///< Streams serialized out.
  std::uint64_t restores = 0;     ///< Streams deserialized back in.
  std::uint64_t restore_failures = 0;  ///< Restores that failed (typed error).
  std::uint64_t evict_skipped = 0;     ///< Budget passes that found no victim.
  std::uint64_t worker_parks = 0;      ///< Times the drain worker slept.
  // Cross-stream coalescing efficiency (the drain planner,
  // core/manager_coalesce.cpp). rows/gemms is the mega-batch fill the
  // planner achieved; streams/gemms the mean group width; fallbacks counts
  // streams that drained per-stream because their projection group was too
  // small (group-of-one, fingerprint mismatch, or ineligible state).
  std::uint64_t coalesced_gemms = 0;    ///< Shared projection GEMMs issued.
  std::uint64_t coalesced_rows = 0;     ///< Rows scored through those GEMMs.
  std::uint64_t coalesced_streams = 0;  ///< Group memberships (sum of widths).
  std::uint64_t coalesce_fallbacks = 0; ///< Streams left to per-stream drain.
  HistogramSnapshot evict_ns;          ///< Serialize-and-release latency.
  HistogramSnapshot restore_ns;        ///< Load-and-admit latency.

  /// Mean rows per shared projection GEMM (0 when none ran).
  double rows_per_gemm() const {
    return coalesced_gemms == 0 ? 0.0
                                : static_cast<double>(coalesced_rows) /
                                      static_cast<double>(coalesced_gemms);
  }
};

/// Per-shard event counters + eviction/restore latency histograms.
class ShardObs {
 public:
  void add_eviction() { add(evictions_); }
  void add_restore() { add(restores_); }
  void add_restore_failure() { add(restore_failures_); }
  void add_evict_skipped() { add(evict_skipped_); }
  void add_worker_park() { add(worker_parks_); }
  /// One coalesced mega-batch: `rows` ring rows from `streams` streams
  /// went through a single shared projection GEMM.
  void add_coalesced_gemm(std::size_t rows, std::size_t streams) {
    coalesced_gemms_.fetch_add(1, std::memory_order_relaxed);
    coalesced_rows_.fetch_add(rows, std::memory_order_relaxed);
    coalesced_streams_.fetch_add(streams, std::memory_order_relaxed);
  }
  void add_coalesce_fallback(std::size_t streams) {
    coalesce_fallbacks_.fetch_add(streams, std::memory_order_relaxed);
  }

  LatencyHistogram& evict_ns() { return evict_ns_; }
  LatencyHistogram& restore_ns() { return restore_ns_; }

  /// Counter/histogram half of a ShardSnapshot; the caller fills the
  /// gauges (stream counts, bytes, pinning) from the shard's own state.
  ShardSnapshot snapshot(std::size_t shard_id) const {
    ShardSnapshot s;
    s.shard_id = shard_id;
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.restores = restores_.load(std::memory_order_relaxed);
    s.restore_failures = restore_failures_.load(std::memory_order_relaxed);
    s.evict_skipped = evict_skipped_.load(std::memory_order_relaxed);
    s.worker_parks = worker_parks_.load(std::memory_order_relaxed);
    s.coalesced_gemms = coalesced_gemms_.load(std::memory_order_relaxed);
    s.coalesced_rows = coalesced_rows_.load(std::memory_order_relaxed);
    s.coalesced_streams = coalesced_streams_.load(std::memory_order_relaxed);
    s.coalesce_fallbacks =
        coalesce_fallbacks_.load(std::memory_order_relaxed);
    s.evict_ns = evict_ns_.snapshot();
    s.restore_ns = restore_ns_.snapshot();
    return s;
  }

 private:
  /// Multi-writer increment (producer restore path races worker evictions).
  static void add(std::atomic<std::uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> restores_{0};
  std::atomic<std::uint64_t> restore_failures_{0};
  std::atomic<std::uint64_t> evict_skipped_{0};
  std::atomic<std::uint64_t> worker_parks_{0};
  std::atomic<std::uint64_t> coalesced_gemms_{0};
  std::atomic<std::uint64_t> coalesced_rows_{0};
  std::atomic<std::uint64_t> coalesced_streams_{0};
  std::atomic<std::uint64_t> coalesce_fallbacks_{0};
  LatencyHistogram evict_ns_;
  LatencyHistogram restore_ns_;
};

}  // namespace edgedrift::obs
