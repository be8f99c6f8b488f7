// obs::LatencyHistogram — fixed-bucket log2 latency histogram.
//
// 32 power-of-two buckets cover [0, 2^31) ns (~2.1 s; anything beyond
// saturates into the last bucket): bucket 0 holds the value 0, bucket b>0
// holds values in [2^(b-1), 2^b - 1]. record() is one bit_width plus one
// relaxed fetch_add — no heap, no lock, safe to read concurrently — so it
// can sit on the per-sample serving path. Snapshots merge by bucket-wise
// addition (HistogramSnapshot::operator+=, how an evicted stream's history
// is carried); merging two snapshots is exactly equivalent to recording
// every value into one histogram (tests/test_obs.cpp proves the property
// over random sweeps).
//
// Under EDGEDRIFT_NO_OBS record() compiles to an empty inline function and
// snapshots read zero (see obs/counters.hpp).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "edgedrift/obs/counters.hpp"

namespace edgedrift::obs {

/// Plain-value copy of one histogram (what stats() hands out).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets) total += b;
    return total;
  }

  double mean_ns() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_ns) / static_cast<double>(n);
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]):
  /// the recorded value at that rank is <= the returned nanoseconds.
  std::uint64_t quantile_upper_ns(double q) const;

  HistogramSnapshot& operator+=(const HistogramSnapshot& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
    sum_ns += o.sum_ns;
    max_ns = max_ns > o.max_ns ? max_ns : o.max_ns;
    return *this;
  }
};

/// Concurrent-read-safe fixed-bucket histogram; no heap anywhere.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  /// Bucket index of a value: 0 -> 0, v > 0 -> bit_width(v), saturated.
  static std::size_t bucket_of(std::uint64_t ns) {
    const std::size_t b =
        ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Smallest value mapping to bucket `b` (0 for buckets 0 and 1).
  static std::uint64_t bucket_lower_ns(std::size_t b) {
    return b <= 1 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Largest value mapping to bucket `b` (the last bucket saturates).
  static std::uint64_t bucket_upper_ns(std::size_t b) {
    if (b == 0) return 0;
    if (b >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t ns) {
    if constexpr (!kObsCompiled) return;
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur && !max_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    if constexpr (!kObsCompiled) return s;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    s.max_ns = max_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

inline std::uint64_t HistogramSnapshot::quantile_upper_ns(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return LatencyHistogram::bucket_upper_ns(b);
    }
  }
  return LatencyHistogram::bucket_upper_ns(kBuckets - 1);
}

}  // namespace edgedrift::obs
