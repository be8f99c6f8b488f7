// obs::Counters — a stream's one counter book.
//
// Every pipeline and ring event of a stream is counted here, exactly once:
// the samples the pipeline consumed, drift detections, completed
// recoveries and the samples they consumed, detector windows, GEMM
// pre-scored chunks, kReject drops and the ring high-water mark.
// core::PipelineStats names the snapshot struct, so Pipeline::stats(),
// PipelineManager::stats(id) and the obs snapshots read one book.
//
// The block is std::atomic<uint64_t> written with relaxed stores by
// whichever thread does the work (producers count rejections and ring
// depth, the stream's single consumer counts everything else) and read at
// any time by a stats() snapshot. Relaxed is enough because every field is
// an independent monotonic counter: a snapshot may be torn across fields,
// but each value is a real count, and each is monotone across snapshots
// (the coherence contract tests/test_obs.cpp pins under ThreadSanitizer).
//
// The counters always count. EDGEDRIFT_NO_OBS (CMake -DEDGEDRIFT_NO_OBS=ON)
// and ObsOptions::enabled switch off only the sampled latency timing (its
// clock reads and histograms) and the drift journal.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace edgedrift::obs {

/// False when latency timing and the journal are compiled out.
#if defined(EDGEDRIFT_NO_OBS)
inline constexpr bool kObsCompiled = false;
#else
inline constexpr bool kObsCompiled = true;
#endif

/// The library's one clock: monotonic wall time in ns (steady). Each
/// caller decides whether to read it.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Plain-value copy of one Counters block (what stats() hands out).
struct CounterSnapshot {
  std::uint64_t samples = 0;           ///< Samples the pipeline consumed.
  std::uint64_t drifts = 0;            ///< Drift detections fired.
  std::uint64_t recoveries = 0;        ///< Recoveries completed.
  std::uint64_t recovery_samples = 0;  ///< Samples consumed by recoveries.
  std::uint64_t windows_opened = 0;    ///< Detector evaluation windows opened.
  std::uint64_t batch_chunks = 0;      ///< GEMM pre-scored chunks issued.
  std::uint64_t batch_rows = 0;        ///< Samples served by those chunks.
  std::uint64_t rejected = 0;          ///< Dropped by kReject backpressure.
  std::uint64_t ring_high_water = 0;   ///< Max observed ring depth.

  /// Sums two books (high-water is the max).
  CounterSnapshot& operator+=(const CounterSnapshot& o) {
    samples += o.samples;
    drifts += o.drifts;
    recoveries += o.recoveries;
    recovery_samples += o.recovery_samples;
    windows_opened += o.windows_opened;
    batch_chunks += o.batch_chunks;
    batch_rows += o.batch_rows;
    rejected += o.rejected;
    ring_high_water = ring_high_water > o.ring_high_water
                          ? ring_high_water
                          : o.ring_high_water;
    return *this;
  }
};

/// Per-stream counters, safe to read while written.
///
/// Every add_* field has exactly one logical writer (the stream's single
/// consumer; rejections come from producers serialized by the stream's
/// produce mutex), so the mutators are plain load+store on the atomic —
/// a regular store instead of a lock-prefixed RMW on the per-sample path.
/// Only ring_high_water has concurrent writers (producers and the
/// consumer) and pays for a CAS loop.
class Counters {
 public:
  void add_samples() { add(samples_, 1); }
  void add_drift() { add(drifts_, 1); }
  void add_recovery() { add(recoveries_, 1); }
  void add_recovery_sample() { add(recovery_samples_, 1); }
  void add_window_opened() { add(windows_opened_, 1); }
  /// One GEMM pre-scored chunk that served `rows` samples.
  void add_batch_chunk(std::uint64_t rows) {
    add(batch_chunks_, 1);
    add(batch_rows_, rows);
  }
  void add_rejected(std::uint64_t n) { add(rejected_, n); }

  /// Relaxed CAS-max: producers and the consumer race each other here.
  void update_ring_high_water(std::uint64_t depth) {
    std::uint64_t cur = ring_high_water_.load(std::memory_order_relaxed);
    while (depth > cur &&
           !ring_high_water_.compare_exchange_weak(
               cur, depth, std::memory_order_relaxed)) {
    }
  }

  /// Samples consumed so far (the consumer's own running index).
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  CounterSnapshot snapshot() const {
    CounterSnapshot s;
    s.samples = samples();
    s.drifts = drifts_.load(std::memory_order_relaxed);
    s.recoveries = recoveries_.load(std::memory_order_relaxed);
    s.recovery_samples = recovery_samples_.load(std::memory_order_relaxed);
    s.windows_opened = windows_opened_.load(std::memory_order_relaxed);
    s.batch_chunks = batch_chunks_.load(std::memory_order_relaxed);
    s.batch_rows = batch_rows_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.ring_high_water = ring_high_water_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Single-writer increment (see class comment): load+store, not RMW.
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> drifts_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> recovery_samples_{0};
  std::atomic<std::uint64_t> windows_opened_{0};
  std::atomic<std::uint64_t> batch_chunks_{0};
  std::atomic<std::uint64_t> batch_rows_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> ring_high_water_{0};
};

}  // namespace edgedrift::obs
